#include "core/features.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "dvfs/combos.hpp"

namespace gppm::core {
namespace {

/// Shared corpus: built once per test binary (construction sweeps the whole
/// suite, so caching matters).
const Dataset& gtx480_dataset() {
  static const Dataset ds = build_dataset(sim::GpuModel::GTX480);
  return ds;
}

profiler::CounterReading reading(profiler::EventClass klass, double total,
                                 double per_second) {
  profiler::CounterReading r;
  r.name = "c";
  r.klass = klass;
  r.total = total;
  r.per_second = per_second;
  return r;
}

TEST(Features, PowerFeatureMultipliesByDomainFrequency) {
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  const auto core = reading(profiler::EventClass::Core, 100.0, 10.0);
  const auto mem = reading(profiler::EventClass::Memory, 100.0, 10.0);
  // Eq. 1: per-second value x frequency (GHz).
  EXPECT_NEAR(feature_value(core, sim::kDefaultPair, spec, TargetKind::Power),
              10.0 * 1.4, 1e-9);
  EXPECT_NEAR(feature_value(mem, sim::kDefaultPair, spec, TargetKind::Power),
              10.0 * 1.848, 1e-9);
}

TEST(Features, TimeFeatureDividesByDomainFrequency) {
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  const auto core = reading(profiler::EventClass::Core, 100.0, 10.0);
  // Eq. 2: total / frequency (GHz).
  EXPECT_NEAR(feature_value(core, sim::kDefaultPair, spec, TargetKind::ExecTime),
              100.0 / 1.4, 1e-9);
  const sim::FrequencyPair ml{sim::ClockLevel::Medium, sim::ClockLevel::Low};
  EXPECT_NEAR(feature_value(core, ml, spec, TargetKind::ExecTime),
              100.0 / 0.81, 1e-9);
}

TEST(Features, MemoryEventUsesMemoryClock) {
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  const auto mem = reading(profiler::EventClass::Memory, 100.0, 10.0);
  const sim::FrequencyPair hl{sim::ClockLevel::High, sim::ClockLevel::Low};
  EXPECT_NEAR(feature_value(mem, hl, spec, TargetKind::ExecTime),
              100.0 / 0.135, 1e-9);
}

TEST(Features, TableHasRowPerSamplePair) {
  const Dataset& ds = gtx480_dataset();
  const RegressionTable table = build_table(ds, TargetKind::Power);
  EXPECT_EQ(table.features.rows(), ds.row_count());
  EXPECT_EQ(table.features.rows(), 114u * 7u);
  EXPECT_EQ(table.features.cols(), 74u);
  EXPECT_EQ(table.target.size(), table.features.rows());
  EXPECT_EQ(table.rows.size(), table.features.rows());
  EXPECT_EQ(table.feature_names.size(), 74u);
}

TEST(Features, PairFilterRestrictsRows) {
  const Dataset& ds = gtx480_dataset();
  const sim::FrequencyPair hh = sim::kDefaultPair;
  const RegressionTable table = build_table(ds, TargetKind::ExecTime, &hh);
  EXPECT_EQ(table.features.rows(), 114u);
  for (const RowInfo& info : table.rows) EXPECT_EQ(info.pair, hh);
}

TEST(Features, TargetsMatchMeasurements) {
  const Dataset& ds = gtx480_dataset();
  const RegressionTable power = build_table(ds, TargetKind::Power);
  const RegressionTable time = build_table(ds, TargetKind::ExecTime);
  for (std::size_t i = 0; i < power.rows.size(); ++i) {
    const Sample& s = ds.samples[power.rows[i].sample_index];
    bool found = false;
    for (const Measurement& m : s.runs) {
      if (m.pair == power.rows[i].pair) {
        EXPECT_DOUBLE_EQ(power.target[i], m.avg_power.as_watts());
        EXPECT_DOUBLE_EQ(time.target[i], m.exec_time.as_seconds());
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

/// build_table as one feature_value call per cell, in row order: the
/// reference the row-pointer build must reproduce bit for bit.
RegressionTable per_cell_table(const Dataset& ds, TargetKind target,
                               const sim::FrequencyPair* pair_filter,
                               FeatureScaling scaling, bool baseline_terms) {
  const sim::DeviceSpec& spec = sim::device_spec(ds.model);
  const std::size_t n_counters = ds.samples.front().counters.counters.size();
  const std::size_t n_features = n_counters + (baseline_terms ? 2 : 0);
  std::size_t n_rows = 0;
  for (const Sample& s : ds.samples) {
    for (const Measurement& m : s.runs) {
      if (!pair_filter || m.pair == *pair_filter) ++n_rows;
    }
  }
  RegressionTable table;
  table.features = linalg::Matrix(n_rows, n_features);
  for (const auto& r : ds.samples.front().counters.counters) {
    table.feature_names.push_back(r.name);
  }
  if (baseline_terms) {
    table.feature_names.push_back(kBaselineCoreFeature);
    table.feature_names.push_back(kBaselineMemFeature);
  }
  std::size_t row = 0;
  for (std::size_t si = 0; si < ds.samples.size(); ++si) {
    const Sample& s = ds.samples[si];
    for (const Measurement& m : s.runs) {
      if (pair_filter && !(m.pair == *pair_filter)) continue;
      for (std::size_t c = 0; c < n_counters; ++c) {
        table.features(row, c) = feature_value(s.counters.counters[c], m.pair,
                                               spec, target, scaling);
      }
      if (baseline_terms) {
        table.features(row, n_counters) =
            feature_value(baseline_reading(profiler::EventClass::Core),
                          m.pair, spec, target, scaling);
        table.features(row, n_counters + 1) =
            feature_value(baseline_reading(profiler::EventClass::Memory),
                          m.pair, spec, target, scaling);
      }
      table.target.push_back(target == TargetKind::Power
                                 ? m.avg_power.as_watts()
                                 : m.exec_time.as_seconds());
      table.rows.push_back({si, m.pair});
      ++row;
    }
  }
  return table;
}

TEST(Features, BuildTableEqualsPerCellFeatureValueBitForBit) {
  struct Form {
    const char* name;
    TargetKind target;
    FeatureScaling scaling;
    bool baseline_terms;
  };
  const Form forms[] = {
      {"power f", TargetKind::Power, FeatureScaling::FrequencyOnly, false},
      {"exec time", TargetKind::ExecTime, FeatureScaling::FrequencyOnly,
       false},
      {"power V^2f + baseline terms", TargetKind::Power,
       FeatureScaling::VoltageSquaredFrequency, true},
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (sim::GpuModel gpu : sim::kAllGpus) {
    const Dataset ds = build_dataset(gpu);
    // A pair other than the default, so the filter drops most rows.
    const sim::FrequencyPair one_pair = dvfs::configurable_pairs(gpu).back();
    for (const Form& form : forms) {
      for (const sim::FrequencyPair* filter :
           {static_cast<const sim::FrequencyPair*>(nullptr), &one_pair}) {
        SCOPED_TRACE(sim::to_string(gpu) + ", " + form.name +
                     (filter ? ", one pair" : ", every pair"));
        const RegressionTable table = build_table(
            ds, form.target, filter, form.scaling, form.baseline_terms);
        const RegressionTable reference = per_cell_table(
            ds, form.target, filter, form.scaling, form.baseline_terms);
        ASSERT_EQ(table.features.rows(), reference.features.rows());
        ASSERT_EQ(table.features.cols(), reference.features.cols());
        ASSERT_GT(table.features.rows(), 0u);
        EXPECT_EQ(table.feature_names, reference.feature_names);
        std::size_t differing = 0;
        for (std::size_t r = 0; r < table.features.rows(); ++r) {
          for (std::size_t c = 0; c < table.features.cols(); ++c) {
            if (bits(table.features(r, c)) != bits(reference.features(r, c))) {
              ++differing;
            }
          }
          EXPECT_EQ(bits(table.target[r]), bits(reference.target[r]));
          EXPECT_EQ(table.rows[r].sample_index,
                    reference.rows[r].sample_index);
          EXPECT_EQ(table.rows[r].pair, reference.rows[r].pair);
        }
        EXPECT_EQ(differing, 0u);
      }
    }
  }
}

TEST(Features, ToStringNames) {
  EXPECT_EQ(to_string(TargetKind::Power), "power");
  EXPECT_EQ(to_string(TargetKind::ExecTime), "exectime");
}

TEST(Features, EmptyDatasetRejected) {
  Dataset empty;
  empty.model = sim::GpuModel::GTX480;
  EXPECT_THROW(build_table(empty, TargetKind::Power), gppm::Error);
}

}  // namespace
}  // namespace gppm::core
