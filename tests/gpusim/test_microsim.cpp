#include "gpusim/microsim.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gpusim/timing.hpp"
#include "workload/suite.hpp"

namespace gppm::sim {
namespace {

KernelProfile compute_kernel() {
  KernelProfile k;
  k.name = "compute";
  k.blocks = 2048;
  k.threads_per_block = 256;
  k.flops_sp_per_thread = 800.0;
  k.int_ops_per_thread = 100.0;
  k.global_load_bytes_per_thread = 2.0;
  k.locality = 0.8;
  return k;
}

KernelProfile memory_kernel() {
  KernelProfile k;
  k.name = "memory";
  k.blocks = 2048;
  k.threads_per_block = 256;
  k.flops_sp_per_thread = 4.0;
  k.global_load_bytes_per_thread = 64.0;
  k.global_store_bytes_per_thread = 16.0;
  k.locality = 0.1;
  return k;
}

class MicrosimOnEveryBoard : public ::testing::TestWithParam<GpuModel> {
 protected:
  const DeviceSpec& spec() const { return device_spec(GetParam()); }
};

TEST_P(MicrosimOnEveryBoard, ComputeBoundScalesWithCoreClock) {
  const auto hh = microsim_kernel(spec(), compute_kernel(), kDefaultPair);
  const auto mh = microsim_kernel(spec(), compute_kernel(),
                                  {ClockLevel::Medium, ClockLevel::High});
  const double freq_ratio = spec().core_clock.frequency_ratio(ClockLevel::Medium);
  EXPECT_NEAR(mh.kernel_time / hh.kernel_time, 1.0 / freq_ratio, 0.2 / freq_ratio);
}

TEST_P(MicrosimOnEveryBoard, MemoryBoundScalesWithMemoryClock) {
  const auto hh = microsim_kernel(spec(), memory_kernel(), kDefaultPair);
  const auto hm = microsim_kernel(spec(), memory_kernel(),
                                  {ClockLevel::High, ClockLevel::Medium});
  const double freq_ratio = spec().mem_clock.frequency_ratio(ClockLevel::Medium);
  EXPECT_GT(hm.kernel_time / hh.kernel_time, 0.5 / freq_ratio);
}

TEST_P(MicrosimOnEveryBoard, ComputeBoundInsensitiveToMemoryClock) {
  const auto hh = microsim_kernel(spec(), compute_kernel(), kDefaultPair);
  const auto hl = microsim_kernel(spec(), compute_kernel(),
                                  {ClockLevel::High, ClockLevel::Low});
  EXPECT_LT(hl.kernel_time / hh.kernel_time, 1.6);
}

TEST_P(MicrosimOnEveryBoard, HighOccupancyHidesLatencyBetterThanLow) {
  KernelProfile k = memory_kernel();
  k.occupancy = 1.0;
  const auto high = microsim_kernel(spec(), k, kDefaultPair);
  k.occupancy = 0.1;
  const auto low = microsim_kernel(spec(), k, kDefaultPair);
  // Per-wave latency hiding is worse with few warps: the low-occupancy run
  // must take longer in total (same work, fewer overlapping warps).
  EXPECT_GT(low.kernel_time.as_seconds(), high.kernel_time.as_seconds());
}

TEST_P(MicrosimOnEveryBoard, IssueUtilizationBounded) {
  for (const KernelProfile& k : {compute_kernel(), memory_kernel()}) {
    const auto r = microsim_kernel(spec(), k, kDefaultPair);
    EXPECT_GT(r.issue_utilization, 0.0);
    EXPECT_LE(r.issue_utilization, 1.0 + 1e-9);
    EXPECT_GE(r.stall_fraction, 0.0);
  }
}

TEST_P(MicrosimOnEveryBoard, ComputeKernelSaturatesIssuePort) {
  const auto r = microsim_kernel(spec(), compute_kernel(), kDefaultPair);
  EXPECT_GT(r.issue_utilization, 0.8);
}

TEST_P(MicrosimOnEveryBoard, LaunchesScaleTotalTime) {
  KernelProfile k = compute_kernel();
  const auto one = microsim_kernel(spec(), k, kDefaultPair);
  k.launches = 7;
  const auto seven = microsim_kernel(spec(), k, kDefaultPair);
  EXPECT_NEAR(seven.total_time / one.total_time, 7.0, 1e-9);
}

TEST_P(MicrosimOnEveryBoard, AgreesWithAnalyticalModelOnSuite) {
  // Cross-validation: over real benchmark kernels the two models must land
  // within a factor of two of each other and mostly much closer.
  int within_2x = 0, total = 0;
  for (const char* name : {"backprop", "streamcluster", "sgemm", "stencil",
                           "hotspot", "lbm", "mri-q"}) {
    const sim::RunProfile profile =
        workload::find_benchmark(name).max_profile();
    for (const KernelProfile& k : profile.kernels) {
      const double analytic =
          compute_kernel_timing(spec(), k, kDefaultPair).kernel_time.as_seconds();
      const double micro =
          microsim_kernel(spec(), k, kDefaultPair).kernel_time.as_seconds();
      const double ratio = micro / analytic;
      ++total;
      if (ratio > 0.5 && ratio < 2.0) ++within_2x;
    }
  }
  EXPECT_GE(within_2x * 10, total * 7) << within_2x << "/" << total;
}

INSTANTIATE_TEST_SUITE_P(AllBoards, MicrosimOnEveryBoard,
                         ::testing::ValuesIn(kAllGpus),
                         [](const ::testing::TestParamInfo<GpuModel>& p) {
                           std::string n = to_string(p.param);
                           n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
                           return n;
                         });

TEST(Microsim, DeterministicAndPure) {
  const DeviceSpec& spec = device_spec(GpuModel::GTX480);
  const auto a = microsim_kernel(spec, memory_kernel(), kDefaultPair);
  const auto b = microsim_kernel(spec, memory_kernel(), kDefaultPair);
  EXPECT_DOUBLE_EQ(a.kernel_time.as_seconds(), b.kernel_time.as_seconds());
}

TEST(Microsim, RejectsEmptyLaunch) {
  KernelProfile k = compute_kernel();
  k.blocks = 0;
  EXPECT_THROW(microsim_kernel(device_spec(GpuModel::GTX480), k, kDefaultPair),
               gppm::Error);
}

TEST(Microsim, WavesReflectGridSize) {
  const DeviceSpec& spec = device_spec(GpuModel::GTX680);
  KernelProfile k = compute_kernel();
  const auto small = microsim_kernel(spec, k, kDefaultPair);
  k.blocks *= 8;
  const auto large = microsim_kernel(spec, k, kDefaultPair);
  EXPECT_NEAR(large.waves / small.waves, 8.0, 0.01);
}

}  // namespace
}  // namespace gppm::sim
