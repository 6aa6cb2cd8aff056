#include "core/unified_model.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/evaluation.hpp"

namespace gppm::core {
namespace {

const Dataset& dataset() {
  static const Dataset ds = build_dataset(sim::GpuModel::GTX460);
  return ds;
}

const UnifiedModel& power_model() {
  static const UnifiedModel m = UnifiedModel::fit(dataset(), TargetKind::Power);
  return m;
}

const UnifiedModel& perf_model() {
  static const UnifiedModel m =
      UnifiedModel::fit(dataset(), TargetKind::ExecTime);
  return m;
}

TEST(UnifiedModel, MetadataAfterFit) {
  EXPECT_EQ(power_model().target(), TargetKind::Power);
  EXPECT_EQ(power_model().gpu(), sim::GpuModel::GTX460);
  EXPECT_EQ(perf_model().target(), TargetKind::ExecTime);
}

TEST(UnifiedModel, RespectsVariableCap) {
  EXPECT_LE(power_model().variables().size(), 10u);
  EXPECT_GE(power_model().variables().size(), 1u);
  ModelOptions opt;
  opt.max_variables = 3;
  const UnifiedModel small = UnifiedModel::fit(dataset(), TargetKind::Power, opt);
  EXPECT_LE(small.variables().size(), 3u);
}

TEST(UnifiedModel, AdjustedR2InRange) {
  EXPECT_GT(power_model().adjusted_r2(), 0.0);
  EXPECT_LE(power_model().adjusted_r2(), 1.0);
  EXPECT_GT(perf_model().adjusted_r2(), 0.5);
}

TEST(UnifiedModel, CumulativeR2NonDecreasing) {
  const auto& vars = perf_model().variables();
  for (std::size_t i = 1; i < vars.size(); ++i) {
    EXPECT_GE(vars[i].cumulative_adjusted_r2,
              vars[i - 1].cumulative_adjusted_r2 - 1e-12);
  }
  EXPECT_NEAR(vars.back().cumulative_adjusted_r2, perf_model().adjusted_r2(),
              1e-12);
}

TEST(UnifiedModel, SelectedCountersAreDistinct) {
  std::set<std::string> names;
  for (const SelectedVariable& v : power_model().variables()) {
    EXPECT_TRUE(names.insert(v.counter).second) << v.counter;
  }
}

TEST(UnifiedModel, PredictMatchesManualComputation) {
  const Sample& s = dataset().samples.front();
  const sim::FrequencyPair pair = s.runs.back().pair;
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX460);
  double manual = power_model().intercept();
  for (const SelectedVariable& v : power_model().variables()) {
    const auto idx =
        profiler::counter_index(sim::Architecture::Fermi, v.counter);
    manual += v.coefficient *
              feature_value(s.counters.counters[idx], pair, spec,
                            TargetKind::Power);
  }
  EXPECT_NEAR(power_model().predict(s.counters, pair), manual, 1e-9);
}

TEST(UnifiedModel, PredictionsTrackFrequencyDirection) {
  // Averaged over the corpus, predicted power must drop from (H-H) to
  // (M-L); the unified frequency scaling is what encodes this.
  const Dataset& ds = dataset();
  double hh = 0, ml = 0;
  for (const Sample& s : ds.samples) {
    hh += power_model().predict(s.counters, sim::kDefaultPair);
    ml += power_model().predict(
        s.counters, {sim::ClockLevel::Medium, sim::ClockLevel::Low});
  }
  EXPECT_LT(ml, hh);
}

TEST(UnifiedModel, PerfPredictionsGrowWhenCoreSlows) {
  const Dataset& ds = dataset();
  double hh = 0, mh = 0;
  for (const Sample& s : ds.samples) {
    hh += perf_model().predict(s.counters, sim::kDefaultPair);
    mh += perf_model().predict(
        s.counters, {sim::ClockLevel::Medium, sim::ClockLevel::High});
  }
  EXPECT_GT(mh, hh);
}

TEST(UnifiedModel, PerPairFitUsesOnlyThatPair) {
  const sim::FrequencyPair hh = sim::kDefaultPair;
  const UnifiedModel per_pair =
      UnifiedModel::fit(dataset(), TargetKind::Power, {}, &hh);
  // Scoring it on its own pair must beat (or match) scoring it everywhere.
  const Evaluation own = evaluate(per_pair, dataset(), &hh);
  const Evaluation all = evaluate(per_pair, dataset());
  EXPECT_LE(own.mape(), all.mape() + 1e-9);
}

TEST(ModelFamily, PrefixesMatchDirectFits) {
  // One selection run at the family cap serves every smaller variable count:
  // family.at(k) must be exactly the model a direct fit capped at k returns.
  ModelOptions opt;
  opt.max_variables = 8;
  const ModelFamily family = ModelFamily::fit(dataset(), TargetKind::Power, opt);
  ASSERT_GE(family.size(), 3u);
  EXPECT_EQ(family.full().variables().size(), family.size());
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, family.size()}) {
    ModelOptions capped = opt;
    capped.max_variables = k;
    const UnifiedModel direct =
        UnifiedModel::fit(dataset(), TargetKind::Power, capped);
    const UnifiedModel& prefix = family.at(k);
    ASSERT_EQ(prefix.variables().size(), direct.variables().size());
    EXPECT_EQ(prefix.intercept(), direct.intercept());
    for (std::size_t i = 0; i < direct.variables().size(); ++i) {
      EXPECT_EQ(prefix.variables()[i].counter, direct.variables()[i].counter);
      EXPECT_EQ(prefix.variables()[i].coefficient,
                direct.variables()[i].coefficient);
      EXPECT_EQ(prefix.variables()[i].cumulative_adjusted_r2,
                direct.variables()[i].cumulative_adjusted_r2);
    }
  }
}

TEST(ModelFamily, AtClampsToSelectedCount) {
  ModelOptions opt;
  opt.max_variables = 4;
  const ModelFamily family =
      ModelFamily::fit(dataset(), TargetKind::ExecTime, opt);
  // Asking beyond what selection kept returns the full model.
  EXPECT_EQ(&family.at(family.size()), &family.full());
  EXPECT_THROW(family.at(0), gppm::Error);
}

TEST(UnifiedModel, EnginesProduceIdenticalModels) {
  // The incremental engine is the default; the naive QR engine is the
  // reference.  Fit tables must be bit-identical between them.
  ModelOptions naive;
  naive.engine = stats::SelectionEngine::NaiveQr;
  const UnifiedModel reference =
      UnifiedModel::fit(dataset(), TargetKind::Power, naive);
  const UnifiedModel& incremental = power_model();
  ASSERT_EQ(reference.variables().size(), incremental.variables().size());
  EXPECT_EQ(reference.intercept(), incremental.intercept());
  for (std::size_t i = 0; i < reference.variables().size(); ++i) {
    EXPECT_EQ(reference.variables()[i].counter,
              incremental.variables()[i].counter);
    EXPECT_EQ(reference.variables()[i].coefficient,
              incremental.variables()[i].coefficient);
  }
}

TEST(ModelFamily, EnginesIdenticalInEveryPrefixAtRealSize) {
  // The served board's exec-time corpus (GTX 680: 798 rows x 108 counters)
  // at the Figs. 7/8 cap of 20: every prefix model of the incremental
  // engine equals the NaiveQr reference's bit for bit.
  const Dataset gtx680 = build_dataset(sim::GpuModel::GTX680);
  ModelOptions opt;
  opt.max_variables = 20;
  const ModelFamily incremental =
      ModelFamily::fit(gtx680, TargetKind::ExecTime, opt);
  opt.engine = stats::SelectionEngine::NaiveQr;
  const ModelFamily naive = ModelFamily::fit(gtx680, TargetKind::ExecTime, opt);
  ASSERT_EQ(incremental.size(), naive.size());
  ASSERT_EQ(naive.size(), 20u);
  for (std::size_t k = 1; k <= naive.size(); ++k) {
    const UnifiedModel& a = incremental.at(k);
    const UnifiedModel& b = naive.at(k);
    SCOPED_TRACE("prefix " + std::to_string(k));
    EXPECT_EQ(a.intercept(), b.intercept());
    EXPECT_EQ(a.adjusted_r2(), b.adjusted_r2());
    ASSERT_EQ(a.variables().size(), k);
    ASSERT_EQ(b.variables().size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(a.variables()[i].counter, b.variables()[i].counter);
      EXPECT_EQ(a.variables()[i].coefficient, b.variables()[i].coefficient);
      EXPECT_EQ(a.variables()[i].cumulative_adjusted_r2,
                b.variables()[i].cumulative_adjusted_r2);
    }
  }
}

TEST(ForwardSelectionParity, ParallelMatchesSerialOnEveryBoard) {
  // Every board's power table at the family cap, selected serially and
  // then with all four boards at once on the compute pool, as the family
  // prefetch fits them: the pooled runs must equal the serial ones.
  std::vector<RegressionTable> tables;
  for (sim::GpuModel gpu : sim::kAllGpus) {
    tables.push_back(build_table(build_dataset(gpu), TargetKind::Power));
  }
  stats::SelectionOptions opt;
  opt.max_variables = 20;
  std::vector<stats::SelectionResult> serial;
  for (const RegressionTable& t : tables) {
    serial.push_back(stats::forward_select(t.features, t.target, opt));
  }
  std::vector<stats::SelectionResult> pooled(tables.size());
  gppm::parallel_for(tables.size(), [&](std::size_t i) {
    pooled[i] =
        stats::forward_select(tables[i].features, tables[i].target, opt);
  });
  for (std::size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE(sim::to_string(sim::kAllGpus[i]));
    EXPECT_EQ(serial[i].selected, pooled[i].selected);
    EXPECT_EQ(serial[i].r2_trace, pooled[i].r2_trace);
    EXPECT_EQ(serial[i].fit.coefficients, pooled[i].fit.coefficients);
    EXPECT_EQ(serial[i].fit.intercept, pooled[i].fit.intercept);
    ASSERT_EQ(serial[i].prefix_fits.size(), pooled[i].prefix_fits.size());
    for (std::size_t k = 0; k < serial[i].prefix_fits.size(); ++k) {
      EXPECT_EQ(serial[i].prefix_fits[k].coefficients,
                pooled[i].prefix_fits[k].coefficients);
    }
  }
}

TEST(UnifiedModel, MoreVariablesNeverHurtAdjustedR2) {
  ModelOptions small;
  small.max_variables = 5;
  ModelOptions large;
  large.max_variables = 15;
  const UnifiedModel m5 = UnifiedModel::fit(dataset(), TargetKind::ExecTime, small);
  const UnifiedModel m15 =
      UnifiedModel::fit(dataset(), TargetKind::ExecTime, large);
  EXPECT_GE(m15.adjusted_r2(), m5.adjusted_r2() - 1e-9);
}

}  // namespace
}  // namespace gppm::core
