// A reusable model-driven DVFS governor — the paper's "dynamic runtime
// management of power and performance" future work as a library component.
//
// The governor holds the fitted unified models for one board and, for each
// application phase (identified by its counter profile), decides the
// operating point under a policy.  It is stateful: a hysteresis threshold
// suppresses switches whose predicted benefit is marginal, since every
// switch costs a P-state transition (a full reboot under the paper's BIOS
// method, milliseconds under runtime reclocking).
#pragma once

#include <functional>
#include <vector>

#include "core/optimizer.hpp"

namespace gppm::core {

/// Objective the governor optimizes per phase.
enum class GovernorPolicy {
  MinimumEnergy,  ///< minimize predicted power x time
  MinimumEdp,     ///< minimize predicted energy-delay product (power x time^2)
  PowerCap,       ///< fastest pair whose predicted power fits under the cap
};

std::string to_string(GovernorPolicy p);

struct GovernorOptions {
  GovernorPolicy policy = GovernorPolicy::MinimumEnergy;
  /// System power budget for the PowerCap policy.
  Power power_cap = Power::watts(200.0);
  /// Hysteresis: switch away from the current pair only if the predicted
  /// objective improves by more than this fraction.
  double switch_threshold = 0.02;

  /// Objective value of a prediction under `policy` (lower is better).
  double objective(const PairPrediction& prediction) const;
  /// The decision rule of both governors (DvfsGovernor and
  /// governor::OnlineGovernor): the lowest objective among the predictions
  /// `feasible` admits (the first on a tie; an empty `feasible` admits
  /// all, and one must be admitted), unless the prediction at `current` is
  /// admitted and not beaten by more than switch_threshold — then it stays.
  const PairPrediction& choose(
      const std::vector<PairPrediction>& predictions,
      sim::FrequencyPair current,
      const std::function<bool(const PairPrediction&)>& feasible = {}) const;
};

/// Phase-level DVFS governor.
class DvfsGovernor {
 public:
  /// Both models must target the same board; power must target Power and
  /// perf ExecTime (validated).
  DvfsGovernor(UnifiedModel power_model, UnifiedModel perf_model,
               GovernorOptions options = {});

  /// Decide the pair for a phase.  Updates the governor's current pair and
  /// switch count.  For PowerCap with no feasible pair, falls back to the
  /// minimum-predicted-power pair.
  sim::FrequencyPair decide(const profiler::ProfileResult& phase_counters);

  /// Predicted objective value of a pair for a phase (exposed for tests
  /// and for callers that want the whole ranking).
  double objective(const PairPrediction& prediction) const;

  sim::FrequencyPair current_pair() const { return current_; }
  int switch_count() const { return switches_; }
  int decision_count() const { return decisions_; }
  const GovernorOptions& options() const { return options_; }

  /// Reset to a starting pair and clear the counters.
  void reset(sim::FrequencyPair start = sim::kDefaultPair);

 private:
  UnifiedModel power_;
  UnifiedModel perf_;
  GovernorOptions options_;
  sim::FrequencyPair current_ = sim::kDefaultPair;
  int switches_ = 0;
  int decisions_ = 0;
};

}  // namespace gppm::core
