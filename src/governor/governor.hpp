// The online energy-optimal DVFS governor — the paper's "dynamic runtime
// management of power and performance" future work, closed into a loop.
//
// Per phase, the governor consumes the live counter profile, queries the
// (online-refitted) unified models for every TABLE III (core, mem) pair,
// and picks the operating point under its policy — energy sweet spot, EDP,
// or fastest-under-cap — with the offline core::DvfsGovernor's decision
// rule, core::GovernorOptions::choose (a switch costs a VBIOS reboot;
// marginal predicted gains are not worth one).  MinimumEnergy optionally
// carries a max-slowdown constraint: pairs whose predicted time exceeds
// the bound relative to the predicted default-pair time are excluded,
// which is how a latency-sensitive deployment states "save energy, but
// never more than X % slower".
//
// Every measured phase is streamed back through governor::ModelRefitter;
// every `refit_interval` observations the coefficients are re-solved from
// the sliding window (incremental Cholesky, see stats::StreamingOls), so
// the decision models track workload drift instead of staying frozen at
// the offline corpus.
//
// Instrumented under governor.* (decisions, switches, refits, rebuilds,
// window gauge) with an obs span per decision and per refit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/governor.hpp"
#include "governor/refit.hpp"

namespace gppm::governor {

/// Policy, power cap and hysteresis threshold come from the base, with the
/// offline core::DvfsGovernor's semantics.
struct OnlineGovernorOptions : core::GovernorOptions {
  /// MinimumEnergy only: exclude pairs predicted slower than this factor
  /// times the predicted default-pair time (1.15 = at most 15 % slower).
  /// 0 disables the constraint.
  double max_slowdown = 0.0;
  /// Re-solve model coefficients every this many observations (0 = never
  /// refit; the models stay at the offline seed).
  std::size_t refit_interval = 8;
  RefitOptions refit;
  /// Learn multiplicative prediction-bias corrections from measured
  /// feedback, keyed by (phase key, pair) with a per-pair fallback for
  /// phases never measured at that pair.  This is what lets the governor
  /// survive boards whose energy margins are thinner than the model error
  /// (Tesla): the first mispredicted down-clock is also the last.
  bool feedback = true;
};

/// Multiplicative measured/predicted correction for one (phase, pair),
/// plus the measured pair-over-default scaling curve.  The curve is the
/// fallback when the linear model extrapolates a pair into its clamp
/// floor — a floored prediction carries no signal for a ratio to correct,
/// but measured(pair) = measured(default) x rel still does.
struct FeedbackBias {
  double power = 1.0;
  double time = 1.0;
  int samples = 0;
  double rel_power = 1.0;  ///< measured power(pair) / power(default)
  double rel_time = 1.0;   ///< measured time(pair) / time(default)
  int rel_samples = 0;
};

/// One logged decision, in order.  The log is what determinism tests pin:
/// same seed corpus, same phase stream, same options => identical logs.
struct Decision {
  sim::FrequencyPair pair;
  bool switched = false;
  double predicted_power_watts = 0.0;
  double predicted_time_seconds = 0.0;
  double predicted_energy_joules = 0.0;
};

class OnlineGovernor {
 public:
  /// Seeds the refit engine with the offline corpus and takes the offline
  /// models as the starting point (power must target Power, perf
  /// ExecTime, same board — validated by the refitter).
  OnlineGovernor(const core::Dataset& seed_corpus, core::UnifiedModel power,
                 core::UnifiedModel perf, OnlineGovernorOptions options = {});

  /// Decide the pair for a phase from its counter profile.  Applies
  /// hysteresis against the current pair and appends to the decision log.
  /// `phase_key` identifies the phase family (e.g. benchmark name) for the
  /// feedback bias table; empty falls back to per-pair corrections only.
  sim::FrequencyPair decide(const profiler::ProfileResult& phase_counters,
                            const std::string& phase_key = {});

  /// Feed back what the decided phase actually measured; updates the
  /// feedback bias table and triggers a refit every
  /// options.refit_interval observations.
  void observe(const profiler::ProfileResult& phase_counters,
               sim::FrequencyPair pair, Power measured_power,
               Duration measured_time, const std::string& phase_key = {});

  /// The correction decide() applies for (phase_key, pair): the entry
  /// under exactly that key if one was ever measured, else identity.  The
  /// empty key holds the cross-phase per-pair aggregate (what keyless
  /// decide() calls use).
  FeedbackBias feedback_bias(const std::string& phase_key,
                             sim::FrequencyPair pair) const;

  sim::FrequencyPair current_pair() const { return current_; }
  int switch_count() const { return switches_; }
  int decision_count() const { return static_cast<int>(log_.size()); }
  int refit_count() const { return refitter_.refit_count(); }
  const std::vector<Decision>& decision_log() const { return log_; }
  const OnlineGovernorOptions& options() const { return options_; }
  const core::UnifiedModel& power_model() const {
    return refitter_.power_model();
  }
  const core::UnifiedModel& perf_model() const {
    return refitter_.perf_model();
  }
  const ModelRefitter& refitter() const { return refitter_; }

  /// Reset pair state and the decision log (the refit window is kept — the
  /// learned coefficients remain valid across workload restarts).
  void reset(sim::FrequencyPair start = sim::kDefaultPair);

 private:
  void update_bias(FeedbackBias& bias, double power_ratio,
                   double time_ratio) const;
  void update_rel(FeedbackBias& bias, double rel_power,
                  double rel_time) const;
  /// Fold one measured (power, time) at `pair` into the bias table, under
  /// `phase_key` and the cross-phase aggregate.
  void seed_bias(const std::string& phase_key,
                 const profiler::ProfileResult& counters,
                 sim::FrequencyPair pair, Power measured_power,
                 Duration measured_time);

  OnlineGovernorOptions options_;
  ModelRefitter refitter_;
  sim::FrequencyPair current_ = sim::kDefaultPair;
  int switches_ = 0;
  std::vector<Decision> log_;
  /// Feedback corrections: (phase key, pair) plus a per-pair aggregate
  /// under the empty key.  Kept across reset() like the refit window.
  std::map<std::pair<std::string, int>, FeedbackBias> bias_;
};

}  // namespace gppm::governor
