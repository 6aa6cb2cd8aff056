// Online model refitting for the DVFS governor.
//
// The offline pipeline selects variables once (forward selection over the
// corpus) and fits their coefficients once.  The governor keeps the
// *selected variable sets* fixed — re-running selection online would make
// decisions non-stationary for no benefit at these dimensions — but
// re-estimates the coefficients continuously from the phases it actually
// measured, through a sliding-window stats::StreamingOls per target seeded
// with the offline corpus as a permanent prior.  As the live workload mix
// drifts away from the corpus (off-ladder input scales, counters collected
// at non-default clocks), the window rows pull the coefficients toward the
// governor's own operating conditions while the prior keeps the problem
// conditioned when the window is short.
#pragma once

#include <cstdint>

#include "core/unified_model.hpp"
#include "stats/streaming_ols.hpp"

namespace gppm::governor {

struct RefitOptions {
  /// Streamed (phase, measurement) observations retained per target.
  std::size_t window = 256;
};

/// Maintains online-refitted copies of one board's power and performance
/// models.  Feature rows are built exactly as UnifiedModel::predict
/// consumes them (selected catalog counters by index, baseline
/// pseudo-features past the catalog, feature_value scaling per target), so
/// a refitted model is interchangeable with the offline fit everywhere.
class ModelRefitter {
 public:
  /// `seed_corpus` replays the offline training rows into the prior; the
  /// two models fix the variable sets and provide the starting
  /// coefficients.  Power must target Power, perf ExecTime, same board.
  ModelRefitter(const core::Dataset& seed_corpus, core::UnifiedModel power,
                core::UnifiedModel perf, RefitOptions options = {});

  /// Stream one measured phase: the counters it was profiled with, the
  /// pair it ran at, and what the instruments reported.
  void observe(const profiler::ProfileResult& counters,
               sim::FrequencyPair pair, Power measured_power,
               Duration measured_time);

  /// Re-solve both models' coefficients from prior + window and swap the
  /// refitted models in.  Cheap (two k x k triangular solve pairs).
  void refit();

  /// Current models (refitted after the last refit() call; the offline
  /// seeds before the first).
  const core::UnifiedModel& power_model() const { return power_; }
  const core::UnifiedModel& perf_model() const { return perf_; }

  std::size_t window_size() const { return power_ols_.window_size(); }
  std::uint64_t observation_count() const { return power_ols_.observed(); }
  int refit_count() const { return refits_; }
  /// Cholesky rebuilds forced by downdate breakdown (both targets).
  int rebuild_count() const;

 private:
  static linalg::Vector feature_row(const core::UnifiedModel& model,
                                    const profiler::ProfileResult& counters,
                                    sim::FrequencyPair pair);
  static core::UnifiedModel with_coefficients(const core::UnifiedModel& model,
                                              const linalg::Vector& beta);

  core::UnifiedModel power_;
  core::UnifiedModel perf_;
  stats::StreamingOls power_ols_;
  stats::StreamingOls perf_ols_;
  int refits_ = 0;
  int seed_rebuilds_ = 0;  ///< rebuilds consumed by construction-time seeding
};

}  // namespace gppm::governor
