#include "core/governor.hpp"

#include <limits>

#include "common/error.hpp"

namespace gppm::core {

std::string to_string(GovernorPolicy p) {
  switch (p) {
    case GovernorPolicy::MinimumEnergy: return "min-energy";
    case GovernorPolicy::MinimumEdp: return "min-edp";
    case GovernorPolicy::PowerCap: return "power-cap";
  }
  throw Error("unknown governor policy");
}

DvfsGovernor::DvfsGovernor(UnifiedModel power_model, UnifiedModel perf_model,
                           GovernorOptions options)
    : power_(std::move(power_model)),
      perf_(std::move(perf_model)),
      options_(options) {
  GPPM_CHECK(power_.target() == TargetKind::Power,
             "first model must target power");
  GPPM_CHECK(perf_.target() == TargetKind::ExecTime,
             "second model must target exectime");
  GPPM_CHECK(power_.gpu() == perf_.gpu(), "models for different boards");
  GPPM_CHECK(options_.switch_threshold >= 0.0, "negative switch threshold");
}

double GovernorOptions::objective(const PairPrediction& p) const {
  switch (policy) {
    case GovernorPolicy::MinimumEnergy:
      return p.predicted_energy_joules;
    case GovernorPolicy::MinimumEdp:
      return p.predicted_energy_joules * p.predicted_time_seconds;
    case GovernorPolicy::PowerCap:
      // Feasible pairs rank by time; infeasible ones sort after every
      // feasible pair, then by how far over the cap they are.
      if (p.predicted_power_watts <= power_cap.as_watts()) {
        return p.predicted_time_seconds;
      }
      return 1e12 + p.predicted_power_watts;
  }
  throw Error("unknown governor policy");
}

const PairPrediction& GovernorOptions::choose(
    const std::vector<PairPrediction>& predictions,
    sim::FrequencyPair current,
    const std::function<bool(const PairPrediction&)>& feasible) const {
  const auto admitted = [&](const PairPrediction& p) {
    return !feasible || feasible(p);
  };
  const PairPrediction* best = nullptr;
  const PairPrediction* incumbent = nullptr;
  for (const PairPrediction& p : predictions) {
    if (admitted(p) && (!best || objective(p) < objective(*best))) best = &p;
    if (p.pair == current) incumbent = &p;
  }
  GPPM_ASSERT(best != nullptr);
  // Hysteresis: a switch costs a P-state transition, so stay unless the
  // best pair beats an admitted incumbent by more than the margin.
  if (incumbent != nullptr && admitted(*incumbent) &&
      objective(*best) >=
          objective(*incumbent) * (1.0 - switch_threshold)) {
    return *incumbent;
  }
  return *best;
}

double DvfsGovernor::objective(const PairPrediction& p) const {
  return options_.objective(p);
}

sim::FrequencyPair DvfsGovernor::decide(
    const profiler::ProfileResult& phase_counters) {
  const std::vector<PairPrediction> predictions =
      predict_all_pairs(power_, perf_, phase_counters);
  GPPM_CHECK(!predictions.empty(), "no configurable pairs");
  const PairPrediction& chosen = options_.choose(predictions, current_);
  ++decisions_;
  if (!(chosen.pair == current_)) ++switches_;
  current_ = chosen.pair;
  return current_;
}

void DvfsGovernor::reset(sim::FrequencyPair start) {
  current_ = start;
  switches_ = 0;
  decisions_ = 0;
}

}  // namespace gppm::core
