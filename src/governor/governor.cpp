#include "governor/governor.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace gppm::governor {

namespace {

/// EMA weight of a new measured ratio in a bias correction that already
/// holds one (the first replaces the identity prior outright).
constexpr double kFeedbackAlpha = 0.5;

/// Dense key for a (core, mem) pair inside the bias table.
int pair_key(sim::FrequencyPair pair) {
  return static_cast<int>(pair.core) * 8 + static_cast<int>(pair.mem);
}

struct GovernorObs {
  obs::Counter& decisions;
  obs::Counter& switches;
  obs::Counter& holds;  ///< decisions resolved by hysteresis to "stay"
  obs::Counter& refits;
  obs::Counter& rebuilds;
  obs::Gauge& window;
};

GovernorObs& governor_obs() {
  obs::Registry& reg = obs::Registry::instance();
  static GovernorObs instruments{
      reg.counter("governor.decisions"),
      reg.counter("governor.switches"),
      reg.counter("governor.holds"),
      reg.counter("governor.refits"),
      reg.counter("governor.rebuilds"),
      reg.gauge("governor.window"),
  };
  return instruments;
}

}  // namespace

OnlineGovernor::OnlineGovernor(const core::Dataset& seed_corpus,
                               core::UnifiedModel power,
                               core::UnifiedModel perf,
                               OnlineGovernorOptions options)
    : options_(options),
      refitter_(seed_corpus, std::move(power), std::move(perf),
                options.refit) {
  GPPM_CHECK(options_.switch_threshold >= 0.0,
             "governor switch threshold must be >= 0");
  GPPM_CHECK(options_.max_slowdown == 0.0 || options_.max_slowdown >= 1.0,
             "governor max_slowdown must be 0 (off) or >= 1");

  // Seed the feedback table with the training residuals: the corpus holds
  // measured (power, time) at every pair, so the initial biases encode
  // exactly where the linear models mispredict each benchmark.  On boards
  // whose energy margins are thinner than the model error (Tesla: ~3 %
  // margin vs ~9 % median power error) this is what makes the very first
  // decisions safe — the models alone cannot rank pairs there, model +
  // residual correction can.  Online observations then EMA these as the
  // workload drifts from the corpus.
  if (options_.feedback) {
    for (const core::Sample& sample : seed_corpus.samples) {
      const core::Measurement* at_default = nullptr;
      for (const core::Measurement& run : sample.runs) {
        if (run.pair == sim::kDefaultPair) at_default = &run;
      }
      for (const core::Measurement& run : sample.runs) {
        seed_bias(sample.benchmark, sample.counters, run.pair,
                  run.avg_power, run.exec_time);
        if (at_default == nullptr) continue;
        const double rel_power =
            run.avg_power.as_watts() /
            std::max(1.0, at_default->avg_power.as_watts());
        const double rel_time =
            run.exec_time.as_seconds() /
            std::max(1e-3, at_default->exec_time.as_seconds());
        const int pk = pair_key(run.pair);
        update_rel(bias_[{sample.benchmark, pk}], rel_power, rel_time);
        update_rel(bias_[{std::string(), pk}], rel_power, rel_time);
      }
    }
  }
}

void OnlineGovernor::seed_bias(const std::string& phase_key,
                               const profiler::ProfileResult& counters,
                               sim::FrequencyPair pair, Power measured_power,
                               Duration measured_time) {
  const double pred_power =
      std::max(1.0, refitter_.power_model().predict(counters, pair));
  const double pred_time =
      std::max(1e-3, refitter_.perf_model().predict(counters, pair));
  // The clamp only guards against degenerate predictions (the 1 W / 1 ms
  // floors); it must stay wide enough to represent real mispredictions —
  // a memory-bound kernel at the low memory clock can run 10x past the
  // linear model's extrapolation, and truncating that ratio would defeat
  // the correction exactly where it matters most.
  const double power_ratio =
      std::clamp(measured_power.as_watts() / pred_power, 0.05, 20.0);
  const double time_ratio =
      std::clamp(measured_time.as_seconds() / pred_time, 0.05, 20.0);
  const int pk = pair_key(pair);
  if (!phase_key.empty()) {
    update_bias(bias_[{phase_key, pk}], power_ratio, time_ratio);
  }
  update_bias(bias_[{std::string(), pk}], power_ratio, time_ratio);
}

FeedbackBias OnlineGovernor::feedback_bias(const std::string& phase_key,
                                           sim::FrequencyPair pair) const {
  const auto it = bias_.find({phase_key, pair_key(pair)});
  return it != bias_.end() ? it->second : FeedbackBias{};
}

void OnlineGovernor::update_bias(FeedbackBias& bias, double power_ratio,
                                 double time_ratio) const {
  // First sample replaces the identity prior outright; later samples blend.
  const double alpha = bias.samples == 0 ? 1.0 : kFeedbackAlpha;
  bias.power = (1.0 - alpha) * bias.power + alpha * power_ratio;
  bias.time = (1.0 - alpha) * bias.time + alpha * time_ratio;
  ++bias.samples;
}

void OnlineGovernor::update_rel(FeedbackBias& bias, double rel_power,
                                double rel_time) const {
  const double alpha = bias.rel_samples == 0 ? 1.0 : kFeedbackAlpha;
  bias.rel_power = (1.0 - alpha) * bias.rel_power + alpha * rel_power;
  bias.rel_time = (1.0 - alpha) * bias.rel_time + alpha * rel_time;
  ++bias.rel_samples;
}

sim::FrequencyPair OnlineGovernor::decide(
    const profiler::ProfileResult& phase_counters,
    const std::string& phase_key) {
  obs::ObsSpan span("governor.decide");
  std::vector<core::PairPrediction> predictions = core::predict_all_pairs(
      refitter_.power_model(), refitter_.perf_model(), phase_counters);
  GPPM_CHECK(!predictions.empty(), "no configurable pairs");

  // Measured-feedback correction: rescale the raw model predictions by
  // what this same phase actually measured at the pair.  On thin-margin
  // boards the model error exceeds the energy margin, so uncorrected
  // predictions systematically overrate down-clocking; the bias table
  // converts each realized misprediction into a standing correction, so a
  // phase's first mispredicted down-clock is also its last.  Cross-phase
  // aggregates deliberately do NOT feed decisions for keyed phases:
  // prediction bias is workload-specific, and exporting one phase's
  // correction to another measurably degrades boards whose models are
  // already accurate.  (A keyless caller still gets the per-pair
  // aggregate — it is the best information available without identity.)
  if (options_.feedback) {
    const auto bias_of = [&](sim::FrequencyPair pair) -> const FeedbackBias* {
      const auto it =
          bias_.find({phase_key.empty() ? std::string() : phase_key,
                      pair_key(pair)});
      return it != bias_.end() ? &it->second : nullptr;
    };

    // Correct the default pair first: it anchors the scaling-curve
    // fallback, and (H-H) is always inside the training distribution so
    // its raw prediction never degenerates.
    double default_power = 0.0, default_time = 0.0;
    for (core::PairPrediction& p : predictions) {
      if (!(p.pair == sim::kDefaultPair)) continue;
      if (const FeedbackBias* bias = bias_of(p.pair)) {
        p.predicted_power_watts *= bias->power;
        p.predicted_time_seconds *= bias->time;
        p.predicted_energy_joules =
            p.predicted_power_watts * p.predicted_time_seconds;
      }
      default_power = p.predicted_power_watts;
      default_time = p.predicted_time_seconds;
    }

    for (core::PairPrediction& p : predictions) {
      if (p.pair == sim::kDefaultPair) continue;
      const FeedbackBias* bias = bias_of(p.pair);
      if (bias == nullptr) continue;
      // A prediction pinned at its clamp floor is linear-extrapolation
      // collapse — no multiplicative ratio can repair it.  Rebuild it from
      // the corrected default prediction and the measured scaling curve.
      const bool degenerate = p.predicted_time_seconds <= 2e-3 ||
                              p.predicted_power_watts <= 2.0;
      if (degenerate && bias->rel_samples > 0 && default_time > 0.0) {
        p.predicted_power_watts = default_power * bias->rel_power;
        p.predicted_time_seconds = default_time * bias->rel_time;
      } else {
        p.predicted_power_watts *= bias->power;
        p.predicted_time_seconds *= bias->time;
      }
      p.predicted_energy_joules =
          p.predicted_power_watts * p.predicted_time_seconds;
    }
  }

  // Max-slowdown constraint (MinimumEnergy only): bound predicted time
  // relative to the predicted default-pair time.  The default pair itself
  // is always feasible, so the constraint can never strand the governor
  // without a choice.
  double time_bound = 0.0;
  if (options_.policy == core::GovernorPolicy::MinimumEnergy &&
      options_.max_slowdown > 0.0) {
    for (const core::PairPrediction& p : predictions) {
      if (p.pair == sim::kDefaultPair) {
        time_bound = p.predicted_time_seconds * options_.max_slowdown;
      }
    }
  }
  auto feasible = [&](const core::PairPrediction& p) {
    if (time_bound <= 0.0 || p.pair == sim::kDefaultPair) return true;
    return p.predicted_time_seconds <= time_bound;
  };

  // An incumbent that became infeasible (the slowdown bound moved under
  // it) gets no hysteresis protection.
  const core::PairPrediction& chosen =
      options_.choose(predictions, current_, feasible);

  Decision d;
  d.pair = chosen.pair;
  d.switched = !(chosen.pair == current_);
  d.predicted_power_watts = chosen.predicted_power_watts;
  d.predicted_time_seconds = chosen.predicted_time_seconds;
  d.predicted_energy_joules = chosen.predicted_energy_joules;
  log_.push_back(d);
  if (d.switched) ++switches_;
  current_ = chosen.pair;

  GovernorObs& o = governor_obs();
  o.decisions.add();
  if (d.switched) {
    o.switches.add();
  } else {
    o.holds.add();
  }
  return current_;
}

void OnlineGovernor::observe(const profiler::ProfileResult& phase_counters,
                             sim::FrequencyPair pair, Power measured_power,
                             Duration measured_time,
                             const std::string& phase_key) {
  // Ratios are measured over the *raw* model prediction (the bias table
  // maps model space to measured space), clamped so one pathological
  // phase cannot poison the table.
  if (options_.feedback) {
    seed_bias(phase_key, phase_counters, pair, measured_power,
              measured_time);
  }

  const int rebuilds_before = refitter_.rebuild_count();
  refitter_.observe(phase_counters, pair, measured_power, measured_time);
  if (options_.refit_interval > 0 &&
      refitter_.observation_count() % options_.refit_interval == 0) {
    obs::ObsSpan span("governor.refit");
    refitter_.refit();
    governor_obs().refits.add();
  }
  GovernorObs& o = governor_obs();
  const int rebuilt = refitter_.rebuild_count() - rebuilds_before;
  if (rebuilt > 0) o.rebuilds.add(static_cast<std::uint64_t>(rebuilt));
  o.window.set(static_cast<std::int64_t>(refitter_.window_size()));
}

void OnlineGovernor::reset(sim::FrequencyPair start) {
  current_ = start;
  switches_ = 0;
  log_.clear();
}

}  // namespace gppm::governor
