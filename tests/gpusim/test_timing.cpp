#include "gpusim/timing.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

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

FrequencyPair pair(ClockLevel c, ClockLevel m) { return {c, m}; }

class TimingOnEveryBoard : public ::testing::TestWithParam<GpuModel> {
 protected:
  const DeviceSpec& spec() const { return device_spec(GetParam()); }
};

TEST_P(TimingOnEveryBoard, ComputeBoundScalesWithCoreClock) {
  const KernelProfile k = compute_kernel();
  const auto th = compute_kernel_timing(spec(), k, kDefaultPair);
  const auto tm = compute_kernel_timing(
      spec(), k, pair(ClockLevel::Medium, ClockLevel::High));
  const double freq_ratio = spec().core_clock.frequency_ratio(ClockLevel::Medium);
  // Kernel time should grow close to 1/freq_ratio.
  EXPECT_NEAR(tm.kernel_time / th.kernel_time, 1.0 / freq_ratio, 0.15);
}

TEST_P(TimingOnEveryBoard, ComputeBoundInsensitiveToMemoryClock) {
  const KernelProfile k = compute_kernel();
  const auto th = compute_kernel_timing(spec(), k, kDefaultPair);
  const auto tl = compute_kernel_timing(
      spec(), k, pair(ClockLevel::High, ClockLevel::Low));
  EXPECT_LT(tl.kernel_time / th.kernel_time, 1.30);
}

TEST_P(TimingOnEveryBoard, MemoryBoundScalesWithMemoryClock) {
  const KernelProfile k = memory_kernel();
  const auto th = compute_kernel_timing(spec(), k, kDefaultPair);
  const auto tm = compute_kernel_timing(
      spec(), k, pair(ClockLevel::High, ClockLevel::Medium));
  const double freq_ratio = spec().mem_clock.frequency_ratio(ClockLevel::Medium);
  EXPECT_GT(tm.kernel_time / th.kernel_time, 0.6 / freq_ratio);
}

TEST_P(TimingOnEveryBoard, MemoryBoundGainsFromCoreClockAtMemHigh) {
  // The Fig. 2 shape: at Mem-H, raising the core clock helps even
  // memory-bound kernels (request-issue limitation).
  const KernelProfile k = memory_kernel();
  const auto t_low = compute_kernel_timing(
      spec(), k, pair(ClockLevel::Low, ClockLevel::High));
  const auto t_high = compute_kernel_timing(spec(), k, kDefaultPair);
  EXPECT_GT(t_low.kernel_time.as_seconds(), t_high.kernel_time.as_seconds());
}

TEST_P(TimingOnEveryBoard, UtilizationsAreFractions) {
  for (const KernelProfile& k : {compute_kernel(), memory_kernel()}) {
    const auto t = compute_kernel_timing(spec(), k, kDefaultPair);
    EXPECT_GE(t.core_utilization, 0.0);
    EXPECT_LE(t.core_utilization, 1.0);
    EXPECT_GE(t.mem_utilization, 0.0);
    EXPECT_LE(t.mem_utilization, 1.0);
  }
}

TEST_P(TimingOnEveryBoard, BottleneckUtilizationIsHigh) {
  const auto tc = compute_kernel_timing(spec(), compute_kernel(), kDefaultPair);
  EXPECT_GT(tc.core_utilization, 0.9);
  const auto tm = compute_kernel_timing(spec(), memory_kernel(), kDefaultPair);
  EXPECT_GT(tm.mem_utilization, 0.9);
}

TEST_P(TimingOnEveryBoard, LaunchesMultiplyTotalTime) {
  KernelProfile k = compute_kernel();
  const auto t1 = compute_kernel_timing(spec(), k, kDefaultPair);
  k.launches = 10;
  const auto t10 = compute_kernel_timing(spec(), k, kDefaultPair);
  EXPECT_NEAR(t10.total_time / t1.total_time, 10.0, 1e-9);
}

TEST_P(TimingOnEveryBoard, MoreBlocksMoreTime) {
  KernelProfile k = memory_kernel();
  const auto t1 = compute_kernel_timing(spec(), k, kDefaultPair);
  k.blocks *= 2;
  const auto t2 = compute_kernel_timing(spec(), k, kDefaultPair);
  EXPECT_NEAR(t2.kernel_time / t1.kernel_time, 2.0, 0.01);
}

TEST_P(TimingOnEveryBoard, PoorCoalescingInflatesDramTraffic) {
  KernelProfile k = memory_kernel();
  k.coalescing = 1.0;
  const double full = kernel_dram_bytes(spec(), k);
  k.coalescing = 0.25;
  EXPECT_NEAR(kernel_dram_bytes(spec(), k) / full, 4.0, 1e-9);
}

TEST_P(TimingOnEveryBoard, DivergenceSlowsCompute) {
  KernelProfile k = compute_kernel();
  const auto base = compute_kernel_timing(spec(), k, kDefaultPair);
  k.divergence = 2.0;
  const auto div = compute_kernel_timing(spec(), k, kDefaultPair);
  EXPECT_NEAR(div.compute_time / base.compute_time, 2.0, 1e-9);
}

TEST_P(TimingOnEveryBoard, LowOccupancyHurtsBothSides) {
  KernelProfile k = compute_kernel();
  k.occupancy = 0.2;
  const auto low = compute_kernel_timing(spec(), k, kDefaultPair);
  k.occupancy = 1.0;
  const auto high = compute_kernel_timing(spec(), k, kDefaultPair);
  EXPECT_GT(low.compute_time.as_seconds(), high.compute_time.as_seconds());
}

INSTANTIATE_TEST_SUITE_P(AllBoards, TimingOnEveryBoard,
                         ::testing::ValuesIn(kAllGpus),
                         [](const ::testing::TestParamInfo<GpuModel>& p) {
                           std::string n = to_string(p.param);
                           n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
                           return n;
                         });

TEST(Timing, CacheReducesTrafficOnlyWithHierarchy) {
  KernelProfile k = memory_kernel();
  k.locality = 0.8;
  const double tesla = kernel_dram_bytes(device_spec(GpuModel::GTX285), k);
  const double kepler = kernel_dram_bytes(device_spec(GpuModel::GTX680), k);
  EXPECT_LT(kepler, tesla);
}

TEST(Timing, OverlapReducesCombinedTime) {
  KernelProfile k = memory_kernel();
  k.flops_sp_per_thread = 100.0;  // give it a real compute side
  k.overlap = 0.0;
  const auto serial =
      compute_kernel_timing(device_spec(GpuModel::GTX480), k, kDefaultPair);
  k.overlap = 1.0;
  const auto overlapped =
      compute_kernel_timing(device_spec(GpuModel::GTX480), k, kDefaultPair);
  EXPECT_LT(overlapped.kernel_time.as_seconds(), serial.kernel_time.as_seconds());
  EXPECT_NEAR(serial.kernel_time.as_seconds(),
              serial.compute_time.as_seconds() + serial.memory_time.as_seconds(),
              1e-12);
}

TEST(Timing, ValidatesKernelProfiles) {
  const DeviceSpec& spec = device_spec(GpuModel::GTX480);
  KernelProfile k = compute_kernel();
  k.coalescing = 0.0;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
  k = compute_kernel();
  k.locality = 1.0;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
  k = compute_kernel();
  k.divergence = 0.5;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
  k = compute_kernel();
  k.blocks = 0;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
  k = compute_kernel();
  k.launches = 0;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
  k = compute_kernel();
  k.occupancy = 0.0;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
  k = compute_kernel();
  k.overlap = 1.5;
  EXPECT_THROW(compute_kernel_timing(spec, k, kDefaultPair), gppm::Error);
}

TEST(Timing, RejectsTrafficAgainstZeroBandwidthCeiling) {
  // Regression for the silent-clamp bug: a device whose bandwidth ceiling
  // collapses to zero used to grant DRAM-moving kernels infinite bandwidth
  // (t_mem clamped to 0).  The timing model must reject the profile — its
  // implied bandwidth demand exceeds any finite ceiling — not mask it.
  DeviceSpec spec = device_spec(GpuModel::GTX480);
  spec.timing.dram_efficiency = 0.0;
  EXPECT_EQ(device_bandwidth_ceiling(spec, kDefaultPair), 0.0);
  EXPECT_THROW(compute_kernel_timing(spec, memory_kernel(), kDefaultPair),
               gppm::Error);

  // A kernel with no DRAM traffic is still computable on the same device.
  KernelProfile pure = compute_kernel();
  pure.global_load_bytes_per_thread = 0.0;
  pure.global_store_bytes_per_thread = 0.0;
  pure.locality = 0.0;
  const KernelTiming t = compute_kernel_timing(spec, pure, kDefaultPair);
  EXPECT_EQ(t.memory_time.as_seconds(), 0.0);
  EXPECT_GT(t.kernel_time.as_seconds(), 0.0);
}

TEST(Timing, DoublePrecisionCostlier) {
  const DeviceSpec& spec = device_spec(GpuModel::GTX680);
  KernelProfile k = compute_kernel();
  const double sp = thread_issue_cycles(spec, k);
  k.flops_sp_per_thread = 0.0;
  k.flops_dp_per_thread = 800.0;
  const double dp = thread_issue_cycles(spec, k);
  EXPECT_GT(dp, sp * 5.0);  // GK104: 1/24 DP rate
}

}  // namespace
}  // namespace gppm::sim
