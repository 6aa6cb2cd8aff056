// The fit path every workload runs: characterize a board, fit its unified
// models, and let the closed-loop governor drive the board with them.
//
// Models always come from the campaign seed, whatever --seed says: the
// seed varies the generated request traces, never what the program
// learned.  The governor's phase schedule is fixed too — its energy saving
// moves by several points between schedule seeds, so only a fixed
// schedule makes energy_saving_pct a check a change can be held to.
#pragma once

#include <cstdint>
#include <string>

#include "core/dataset.hpp"
#include "core/unified_model.hpp"
#include "spans.hpp"

namespace gppm::benchmark {

inline constexpr std::uint64_t kCampaignSeed = 42;
/// Selection cap of the fitted families; every smaller cap is a prefix.
inline constexpr std::size_t kFamilyMaxVariables = 20;
/// Variables of the served models (the library's default cap).
inline constexpr std::size_t kServedVariables = 10;
inline constexpr std::size_t kGovernorPhases = 48;

/// The characterization corpus of one board (core::build_dataset).
core::Dataset characterize(sim::GpuModel gpu);

/// Everything one board's fit produces.
struct BoardFit {
  core::ModelFamily power;  ///< Eq. 1 power, k = kFamilyMaxVariables
  core::ModelFamily perf;   ///< Eq. 2 execution time, same cap
  /// V^2 f power form with baseline terms: the governor's power model
  /// (the frequency-only form undervalues every down-clock).
  core::UnifiedModel governor_power;

  const core::UnifiedModel& served_power() const {
    return power.at(kServedVariables);
  }
  const core::UnifiedModel& served_perf() const {
    return perf.at(kServedVariables);
  }
};

/// Fit one board.  With spans enabled, each model fit is a child span of
/// `parent`.
BoardFit fit_board(const core::Dataset& dataset, SpanRecorder& spans,
                   std::uint64_t parent = 0, std::uint64_t request = 0);

/// Serialized form of every prefix model of a family, for byte-identity
/// checks.
std::string serialize(const core::ModelFamily& family);
/// Serialized form of both families and the governor's power model.
std::string serialize(const BoardFit& fit);

struct GovernorOutcome {
  double saving_pct = 0.0;      ///< governed energy vs static (H-H)
  double oracle_gap_pct = 0.0;  ///< governed energy over the per-phase optimum
  int switches = 0;
  int reboots = 0;
};

/// One kGovernorPhases-phase closed DVFS loop with baselines measured.
GovernorOutcome run_governor(const core::Dataset& dataset,
                             const BoardFit& fit);

}  // namespace gppm::benchmark
