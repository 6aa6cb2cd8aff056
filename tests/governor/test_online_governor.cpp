#include "governor/governor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/optimizer.hpp"
#include "governor/loop.hpp"
#include "profiler/cuda_profiler.hpp"
#include "workload/phases.hpp"

namespace gppm::governor {
namespace {

const core::Dataset& dataset() {
  static const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX680);
  return ds;
}

core::UnifiedModel extended_power() {
  core::ModelOptions opt;
  opt.scaling = core::FeatureScaling::VoltageSquaredFrequency;
  opt.include_baseline_terms = true;
  return core::UnifiedModel::fit(dataset(), core::TargetKind::Power, opt);
}

core::UnifiedModel perf_model() {
  return core::UnifiedModel::fit(dataset(), core::TargetKind::ExecTime);
}

const core::Sample& sample_of(const std::string& bench) {
  for (const core::Sample& s : dataset().samples) {
    if (s.benchmark == bench && s.size_index == 0) return s;
  }
  throw Error("benchmark not in corpus: " + bench);
}

/// Raw-model governor: no feedback corrections, no refitting.  Decisions
/// are then a pure function of the seed models, which the tests can
/// reproduce through core::predict_all_pairs.
OnlineGovernorOptions raw_options() {
  OnlineGovernorOptions opt;
  opt.feedback = false;
  opt.refit_interval = 0;
  return opt;
}

TEST(OnlineGovernor, ValidatesOptions) {
  OnlineGovernorOptions opt = raw_options();
  opt.switch_threshold = -0.1;
  EXPECT_THROW(OnlineGovernor(dataset(), extended_power(), perf_model(), opt),
               Error);
  opt = raw_options();
  opt.max_slowdown = 0.5;  // below 1 and not the 0 sentinel
  EXPECT_THROW(OnlineGovernor(dataset(), extended_power(), perf_model(), opt),
               Error);
}

// Find a corpus sample where the raw models prefer a non-default pair, and
// return the hysteresis threshold at which that preference exactly equals
// the switching margin.
struct BoundaryCase {
  const core::Sample* sample = nullptr;
  sim::FrequencyPair best_pair;
  double threshold_at = 0.0;  ///< 1 - E(best)/E(default)
};

BoundaryCase find_boundary_case(const core::UnifiedModel& power,
                                const core::UnifiedModel& perf) {
  for (const core::Sample& s : dataset().samples) {
    const auto preds = core::predict_all_pairs(power, perf, s.counters);
    const core::PairPrediction* best = nullptr;
    const core::PairPrediction* at_default = nullptr;
    for (const core::PairPrediction& p : preds) {
      if (!best || p.predicted_energy_joules < best->predicted_energy_joules) {
        best = &p;
      }
      if (p.pair == sim::kDefaultPair) at_default = &p;
    }
    if (best->pair == sim::kDefaultPair) continue;
    BoundaryCase c;
    c.sample = &s;
    c.best_pair = best->pair;
    c.threshold_at = 1.0 - best->predicted_energy_joules /
                               at_default->predicted_energy_joules;
    if (c.threshold_at > 1e-3) return c;
  }
  throw Error("no corpus sample prefers a non-default pair");
}

TEST(OnlineGovernor, HysteresisBoundaryBracketsSwitchingMargin) {
  const core::UnifiedModel power = extended_power();
  const core::UnifiedModel perf = perf_model();
  const BoundaryCase c = find_boundary_case(power, perf);

  // Threshold a hair above the predicted margin: the margin no longer
  // clears it, so the governor must hold the default pair.
  OnlineGovernorOptions hold_opt = raw_options();
  hold_opt.switch_threshold = c.threshold_at + 1e-9;
  OnlineGovernor holder(dataset(), power, perf, hold_opt);
  EXPECT_EQ(holder.decide(c.sample->counters), sim::kDefaultPair);
  EXPECT_EQ(holder.switch_count(), 0);
  ASSERT_EQ(holder.decision_log().size(), 1u);
  EXPECT_FALSE(holder.decision_log()[0].switched);

  // Threshold a hair below: the same margin now clears it and the governor
  // must switch to the predicted-best pair.
  OnlineGovernorOptions switch_opt = raw_options();
  switch_opt.switch_threshold = c.threshold_at - 1e-9;
  OnlineGovernor switcher(dataset(), power, perf, switch_opt);
  EXPECT_EQ(switcher.decide(c.sample->counters), c.best_pair);
  EXPECT_EQ(switcher.switch_count(), 1);
  ASSERT_EQ(switcher.decision_log().size(), 1u);
  EXPECT_TRUE(switcher.decision_log()[0].switched);
}

TEST(OnlineGovernor, ZeroThresholdDecisionMatchesOptimizer) {
  const core::UnifiedModel power = extended_power();
  const core::UnifiedModel perf = perf_model();
  OnlineGovernorOptions opt = raw_options();
  opt.switch_threshold = 0.0;
  OnlineGovernor gov(dataset(), power, perf, opt);
  const auto& c = sample_of("sgemm").counters;
  EXPECT_EQ(gov.decide(c), core::predict_min_energy_pair(power, perf, c));
}

TEST(OnlineGovernor, MaxSlowdownConstraintBoundsPredictedTime) {
  const core::UnifiedModel power = extended_power();
  const core::UnifiedModel perf = perf_model();
  OnlineGovernorOptions opt = raw_options();
  opt.switch_threshold = 0.0;
  opt.max_slowdown = 1.05;
  for (const char* bench : {"sgemm", "kmeans", "BlackScholes", "lbm"}) {
    const auto& counters = sample_of(bench).counters;
    OnlineGovernor gov(dataset(), power, perf, opt);
    const sim::FrequencyPair pick = gov.decide(counters);
    double default_time = 0.0, pick_time = 0.0;
    for (const auto& p : core::predict_all_pairs(power, perf, counters)) {
      if (p.pair == sim::kDefaultPair) default_time = p.predicted_time_seconds;
      if (p.pair == pick) pick_time = p.predicted_time_seconds;
    }
    EXPECT_LE(pick_time, default_time * 1.05 * (1.0 + 1e-12)) << bench;
  }
}

TEST(OnlineGovernor, RefitTriggersExactlyOnInterval) {
  OnlineGovernorOptions opt;
  opt.feedback = false;
  opt.refit_interval = 4;
  OnlineGovernor gov(dataset(), extended_power(), perf_model(), opt);
  const core::Sample& s = sample_of("sgemm");
  const core::Measurement& run = s.runs.front();
  for (int i = 1; i <= 8; ++i) {
    gov.observe(s.counters, run.pair, run.avg_power, run.exec_time);
    EXPECT_EQ(gov.refit_count(), i / 4) << "after observation " << i;
  }
}

TEST(OnlineGovernor, CorpusSeedsFeedbackBiasTable) {
  OnlineGovernor gov(dataset(), extended_power(), perf_model());
  const core::Sample& s = sample_of("sgemm");
  for (const core::Measurement& run : s.runs) {
    const FeedbackBias keyed = gov.feedback_bias("sgemm", run.pair);
    EXPECT_GT(keyed.samples, 0);
    EXPECT_GT(keyed.rel_samples, 0);
    EXPECT_GT(keyed.power, 0.0);
    EXPECT_GT(keyed.time, 0.0);
    // The cross-phase aggregate lives under the empty key.
    EXPECT_GT(gov.feedback_bias("", run.pair).samples, 0);
  }
  // Unknown phases carry no correction.
  EXPECT_EQ(gov.feedback_bias("no-such-bench", s.runs.front().pair).samples,
            0);
}

TEST(OnlineGovernor, FeedbackSteersAwayFromMeasuredBadPair) {
  OnlineGovernorOptions opt;
  opt.refit_interval = 0;  // isolate the bias table from model refits
  opt.switch_threshold = 0.0;
  OnlineGovernor gov(dataset(), extended_power(), perf_model(), opt);
  const core::Sample& s = sample_of("sgemm");

  const sim::FrequencyPair first = gov.decide(s.counters, "sgemm");
  // Report the picked pair as catastrophically expensive, repeatedly, so
  // the EMA converges onto the fiction.
  for (int i = 0; i < 4; ++i) {
    gov.observe(s.counters, first, Power::watts(4000.0),
                Duration::seconds(400.0), "sgemm");
  }
  const sim::FrequencyPair second = gov.decide(s.counters, "sgemm");
  EXPECT_FALSE(second == first)
      << "governor repeated a pair measured as catastrophic";
}

TEST(OnlineGovernor, ResetClearsDecisionsButKeepsLearnedState) {
  OnlineGovernorOptions opt;
  OnlineGovernor gov(dataset(), extended_power(), perf_model(), opt);
  const core::Sample& s = sample_of("sgemm");
  gov.decide(s.counters, "sgemm");
  ASSERT_EQ(gov.decision_count(), 1);

  gov.reset();
  EXPECT_EQ(gov.decision_count(), 0);
  EXPECT_EQ(gov.switch_count(), 0);
  EXPECT_EQ(gov.current_pair(), sim::kDefaultPair);
  // The corpus-seeded feedback table survives the reset.
  EXPECT_GT(gov.feedback_bias("sgemm", s.runs.front().pair).samples, 0);
}

// --- Closed loop ------------------------------------------------------

LoopOptions fast_loop_options() {
  LoopOptions opt;
  opt.measure_baselines = false;
  return opt;
}

std::vector<workload::Phase> short_schedule(std::uint64_t seed) {
  workload::PhaseScheduleOptions sched;
  sched.phases = 8;
  sched.seed = seed;
  return workload::phase_schedule(
      sched, profiler::CudaProfiler::unsupported_benchmarks());
}

TEST(GovernorLoop, SameSeedProducesIdenticalDecisionLog) {
  const std::vector<workload::Phase> phases = short_schedule(5);
  GovernorLoop a(sim::GpuModel::GTX680, dataset(), extended_power(),
                 perf_model(), fast_loop_options());
  GovernorLoop b(sim::GpuModel::GTX680, dataset(), extended_power(),
                 perf_model(), fast_loop_options());
  const LoopResult ra = a.run(phases);
  const LoopResult rb = b.run(phases);

  EXPECT_EQ(ra.governed_energy_joules, rb.governed_energy_joules);
  const std::vector<Decision>& la = a.governor().decision_log();
  const std::vector<Decision>& lb = b.governor().decision_log();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].pair, lb[i].pair) << "decision " << i;
    EXPECT_EQ(la[i].switched, lb[i].switched) << "decision " << i;
    EXPECT_EQ(la[i].predicted_energy_joules, lb[i].predicted_energy_joules)
        << "decision " << i;
  }
}

TEST(GovernorLoop, EverySwitchCostsExactlyOneReboot) {
  GovernorLoop loop(sim::GpuModel::GTX680, dataset(), extended_power(),
                    perf_model(), fast_loop_options());
  const LoopResult result = loop.run(short_schedule(13));
  EXPECT_EQ(result.reboots, result.switches);
  EXPECT_GT(result.governed_energy_joules, 0.0);
  EXPECT_FALSE(result.phases.empty());
}

TEST(GovernorLoop, RejectsCorpusFromDifferentBoard) {
  EXPECT_THROW(GovernorLoop(sim::GpuModel::GTX285, dataset(),
                            extended_power(), perf_model(),
                            fast_loop_options()),
               Error);
}

// --- Refitter ---------------------------------------------------------

TEST(ModelRefitter, RefitWithoutObservationsReproducesSeedModels) {
  ModelRefitter refitter(dataset(), extended_power(), perf_model());
  const core::UnifiedModel seed_power = refitter.power_model();
  const core::UnifiedModel seed_perf = refitter.perf_model();
  refitter.refit();
  for (const char* bench : {"sgemm", "kmeans"}) {
    const core::Sample& s = sample_of(bench);
    for (const core::Measurement& run : s.runs) {
      const double p0 = seed_power.predict(s.counters, run.pair);
      const double p1 = refitter.power_model().predict(s.counters, run.pair);
      EXPECT_NEAR(p1, p0, std::abs(p0) * 0.02 + 0.5) << bench;
      const double t0 = seed_perf.predict(s.counters, run.pair);
      const double t1 = refitter.perf_model().predict(s.counters, run.pair);
      EXPECT_NEAR(t1, t0, std::abs(t0) * 0.02 + 0.01) << bench;
    }
  }
}

TEST(ModelRefitter, ObservationsMoveTheCoefficients) {
  ModelRefitter refitter(dataset(), extended_power(), perf_model());
  const core::Sample& s = sample_of("sgemm");
  const core::Measurement& run = s.runs.front();
  const double before =
      refitter.power_model().predict(s.counters, run.pair);
  // Stream a long run of measurements 25 % hotter than the corpus says.
  for (int i = 0; i < 64; ++i) {
    refitter.observe(s.counters, run.pair,
                     Power::watts(run.avg_power.as_watts() * 1.25),
                     run.exec_time);
  }
  refitter.refit();
  const double after = refitter.power_model().predict(s.counters, run.pair);
  EXPECT_GT(after, before);
  EXPECT_TRUE(std::isfinite(after));
  EXPECT_EQ(refitter.refit_count(), 1);
  EXPECT_EQ(refitter.observation_count(), 64u);
}

TEST(ModelRefitter, RejectsMixTermModelOverPlainCorpus) {
  // A power model with a mix pseudo-counter past the catalog cannot be fed
  // from the plain corpus: its rows carry no mix readings, and a unit
  // baseline must not stand in for one.
  core::UnifiedModel::Parts parts = extended_power().parts();
  const std::size_t catalog_size =
      profiler::counter_catalog(sim::device_spec(sim::GpuModel::GTX680)
                                    .architecture)
          .size();
  parts.variables.push_back(
      {"mix.bw_pressure", profiler::EventClass::Memory, 1.0, 0.0});
  parts.counter_indices.push_back(catalog_size + 2);
  const core::UnifiedModel mix_power =
      core::UnifiedModel::from_parts(std::move(parts));
  EXPECT_THROW(ModelRefitter(dataset(), mix_power, perf_model()), Error);
}

}  // namespace
}  // namespace gppm::governor
