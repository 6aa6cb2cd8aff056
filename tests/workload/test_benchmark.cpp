// Property tests over every benchmark at every input size: the profiles
// must be valid simulator inputs with physically sensible behaviour.
#include "workload/benchmark.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/str.hpp"
#include "gpusim/timing.hpp"
#include "workload/suite.hpp"

namespace gppm::workload {
namespace {

/// (benchmark index, size index) parameter space over the whole suite.
struct Case {
  std::size_t bench;
  std::size_t size;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const auto& suite = benchmark_suite();
  for (std::size_t b = 0; b < suite.size(); ++b) {
    for (std::size_t s = 0; s < suite[b].size_count; ++s) cases.push_back({b, s});
  }
  return cases;
}

class EveryBenchmarkSize : public ::testing::TestWithParam<Case> {
 protected:
  const BenchmarkDef& def() const { return benchmark_suite()[GetParam().bench]; }
  sim::RunProfile profile() const { return def().profile(GetParam().size); }
};

TEST_P(EveryBenchmarkSize, ProfileIsValidSimulatorInput) {
  const sim::RunProfile p = profile();
  EXPECT_EQ(p.benchmark_name, def().name);
  ASSERT_FALSE(p.kernels.empty());
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  for (const sim::KernelProfile& k : p.kernels) {
    EXPECT_NO_THROW(sim::compute_kernel_timing(spec, k, sim::kDefaultPair));
  }
}

TEST_P(EveryBenchmarkSize, KernelNamesCarryBenchmarkAndSizeTags) {
  const sim::RunProfile p = profile();
  const std::string size_tag = "/s" + std::to_string(GetParam().size) + "/";
  for (const sim::KernelProfile& k : p.kernels) {
    EXPECT_TRUE(starts_with(k.name, def().name)) << k.name;
    EXPECT_TRUE(contains(k.name, size_tag)) << k.name;
  }
}

TEST_P(EveryBenchmarkSize, HostTimePositive) {
  EXPECT_GT(profile().host_time.as_seconds(), 0.0);
}

TEST_P(EveryBenchmarkSize, NominalGpuTimeInPaperRange) {
  // The paper's runs span hundreds of ms to tens of seconds; allow slack
  // for the sub-500 ms programs the repetition rule later extends.
  const sim::RunProfile p = profile();
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  double total = 0;
  for (const sim::KernelProfile& k : p.kernels) {
    total += sim::compute_kernel_timing(spec, k, sim::kDefaultPair)
                 .total_time.as_seconds();
  }
  EXPECT_GT(total, 0.01);
  EXPECT_LT(total, 60.0);
}

TEST_P(EveryBenchmarkSize, NoiseScaleDecreasesWithSize) {
  const sim::RunProfile p = profile();
  for (const sim::KernelProfile& k : p.kernels) {
    EXPECT_NEAR(k.unmodeled_scale,
                1.45 - 0.3 * static_cast<double>(GetParam().size), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryBenchmarkSize, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& p) {
      std::string n = benchmark_suite()[p.param.bench].name + "_s" +
                      std::to_string(p.param.size);
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(Benchmark, LargerInputsRunLonger) {
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  for (const BenchmarkDef& def : benchmark_suite()) {
    auto gpu_time = [&](std::size_t size) {
      double total = 0;
      for (const sim::KernelProfile& k : def.profile(size).kernels) {
        total += sim::compute_kernel_timing(spec, k, sim::kDefaultPair)
                     .total_time.as_seconds();
      }
      return total;
    };
    EXPECT_GT(gpu_time(def.size_count - 1), gpu_time(0)) << def.name;
  }
}

TEST(Benchmark, ScaleOfDoublingLadder) {
  const BenchmarkDef& def = benchmark_suite().front();
  EXPECT_DOUBLE_EQ(def.scale_of(0), 1.0);
  EXPECT_DOUBLE_EQ(def.scale_of(1), 2.0);
  EXPECT_DOUBLE_EQ(def.scale_of(2), 4.0);
  EXPECT_THROW(def.scale_of(def.size_count), gppm::Error);
}

TEST(Benchmark, MaxProfileUsesLargestSize) {
  const BenchmarkDef& def = find_benchmark("streamcluster");
  const sim::RunProfile max = def.max_profile();
  const sim::RunProfile last = def.profile(def.size_count - 1);
  EXPECT_EQ(max.kernels.front().blocks, last.kernels.front().blocks);
}

TEST(Benchmark, CharacteristicIntensities) {
  // The showcased workloads must keep their paper roles: backprop
  // compute-bound, streamcluster memory-bound (on the reference board).
  const sim::DeviceSpec& spec = sim::device_spec(sim::GpuModel::GTX480);
  const auto bp = find_benchmark("backprop").max_profile();
  const auto t_bp =
      sim::compute_kernel_timing(spec, bp.kernels.front(), sim::kDefaultPair);
  EXPECT_GT(t_bp.compute_time.as_seconds(), t_bp.memory_time.as_seconds() * 5);

  const auto sc = find_benchmark("streamcluster").max_profile();
  const auto t_sc =
      sim::compute_kernel_timing(spec, sc.kernels.front(), sim::kDefaultPair);
  EXPECT_GT(t_sc.memory_time.as_seconds(), t_sc.compute_time.as_seconds() * 2);
}

}  // namespace
}  // namespace gppm::workload
