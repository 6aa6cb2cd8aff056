// Validates the device registry against paper TABLE I.
#include "gpusim/device_spec.hpp"

#include <gtest/gtest.h>

namespace gppm::sim {
namespace {

struct TableOneRow {
  GpuModel model;
  Architecture arch;
  int cores;
  double gflops;
  double bandwidth;
  double tdp;
  double core_freqs[3];  // L, M, H
  double mem_freqs[3];
};

const TableOneRow kTableOne[] = {
    {GpuModel::GTX285, Architecture::Tesla, 240, 933.0, 159.0, 183.0,
     {600, 800, 1296}, {100, 300, 1284}},
    {GpuModel::GTX460, Architecture::Fermi, 336, 907.0, 115.2, 160.0,
     {100, 810, 1350}, {135, 324, 1800}},
    {GpuModel::GTX480, Architecture::Fermi, 480, 1350.0, 177.0, 250.0,
     {100, 810, 1400}, {135, 324, 1848}},
    {GpuModel::GTX680, Architecture::Kepler, 1536, 3090.0, 192.2, 195.0,
     {648, 1080, 1411}, {324, 810, 3004}},
};

class DeviceSpecTableOne : public ::testing::TestWithParam<TableOneRow> {};

TEST_P(DeviceSpecTableOne, MatchesPaperTableOne) {
  const TableOneRow& row = GetParam();
  const DeviceSpec& spec = device_spec(row.model);
  EXPECT_EQ(spec.architecture, row.arch);
  EXPECT_EQ(spec.cuda_cores, row.cores);
  EXPECT_EQ(spec.sm_count * spec.cores_per_sm, row.cores);
  EXPECT_DOUBLE_EQ(spec.peak_gflops, row.gflops);
  EXPECT_DOUBLE_EQ(spec.mem_bandwidth_gbps, row.bandwidth);
  EXPECT_DOUBLE_EQ(spec.tdp.as_watts(), row.tdp);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(spec.core_clock.steps[i].frequency.as_mhz(),
                     row.core_freqs[i]);
    EXPECT_DOUBLE_EQ(spec.mem_clock.steps[i].frequency.as_mhz(),
                     row.mem_freqs[i]);
  }
}

TEST_P(DeviceSpecTableOne, VoltagesIncreaseWithFrequency) {
  const DeviceSpec& spec = device_spec(GetParam().model);
  for (const ClockDomainSpec* dom : {&spec.core_clock, &spec.mem_clock}) {
    EXPECT_LE(dom->steps[0].voltage.as_volts(), dom->steps[1].voltage.as_volts());
    EXPECT_LE(dom->steps[1].voltage.as_volts(), dom->steps[2].voltage.as_volts());
  }
}

TEST_P(DeviceSpecTableOne, CalibrationIsPhysical) {
  const DeviceSpec& spec = device_spec(GetParam().model);
  const PowerCalibration& p = spec.power;
  EXPECT_GT(p.static_power.as_watts(), 0.0);
  EXPECT_GT(p.core_dynamic.as_watts(), 0.0);
  EXPECT_GT(p.mem_dynamic.as_watts(), 0.0);
  EXPECT_GE(p.core_baseline, 0.0);
  EXPECT_LE(p.core_baseline, 1.0);
  EXPECT_GE(p.mem_baseline, 0.0);
  EXPECT_LE(p.mem_baseline, 1.0);
  EXPECT_GE(p.core_ungated, 0.0);
  EXPECT_LT(p.core_ungated, 1.0);
  EXPECT_GT(spec.timing.issue_efficiency, 0.0);
  EXPECT_LE(spec.timing.issue_efficiency, 1.0);
  EXPECT_GT(spec.timing.dram_efficiency, 0.0);
  EXPECT_LE(spec.timing.dram_efficiency, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBoards, DeviceSpecTableOne, ::testing::ValuesIn(kTableOne),
    [](const ::testing::TestParamInfo<TableOneRow>& p) {
      std::string n = to_string(p.param.model);
      n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
      return n;
    });

TEST(DeviceSpec, CounterCountsMatchPaper) {
  EXPECT_EQ(device_spec(GpuModel::GTX285).performance_counter_count, 32);
  EXPECT_EQ(device_spec(GpuModel::GTX460).performance_counter_count, 74);
  EXPECT_EQ(device_spec(GpuModel::GTX480).performance_counter_count, 74);
  EXPECT_EQ(device_spec(GpuModel::GTX680).performance_counter_count, 108);
}

TEST(DeviceSpec, CacheHierarchyPresenceByGeneration) {
  EXPECT_FALSE(device_spec(GpuModel::GTX285).has_cache_hierarchy);
  EXPECT_TRUE(device_spec(GpuModel::GTX460).has_cache_hierarchy);
  EXPECT_TRUE(device_spec(GpuModel::GTX480).has_cache_hierarchy);
  EXPECT_TRUE(device_spec(GpuModel::GTX680).has_cache_hierarchy);
}

TEST(DeviceSpec, TeslaCacheEffectivenessIsTextureOnly) {
  EXPECT_LT(device_spec(GpuModel::GTX285).timing.cache_effectiveness, 0.2);
  EXPECT_GT(device_spec(GpuModel::GTX480).timing.cache_effectiveness, 0.4);
}

TEST(DeviceSpec, UnpredictabilityDecreasesWithGeneration) {
  // The error-ordering mechanism: Tesla is the least predictable board.
  EXPECT_GT(device_spec(GpuModel::GTX285).timing.unmodeled_sigma,
            device_spec(GpuModel::GTX460).timing.unmodeled_sigma);
  EXPECT_GT(device_spec(GpuModel::GTX460).timing.unmodeled_sigma,
            device_spec(GpuModel::GTX680).timing.unmodeled_sigma);
}

TEST(ClockDomainSpec, RatiosRelativeToHigh) {
  const DeviceSpec& spec = device_spec(GpuModel::GTX285);
  EXPECT_DOUBLE_EQ(spec.core_clock.frequency_ratio(ClockLevel::High), 1.0);
  EXPECT_NEAR(spec.core_clock.frequency_ratio(ClockLevel::Low), 600.0 / 1296.0,
              1e-12);
  EXPECT_DOUBLE_EQ(spec.core_clock.voltage_sq_ratio(ClockLevel::High), 1.0);
  EXPECT_LT(spec.core_clock.voltage_sq_ratio(ClockLevel::Low), 1.0);
}

}  // namespace
}  // namespace gppm::sim
