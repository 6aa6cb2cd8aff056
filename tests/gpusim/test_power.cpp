#include "gpusim/power.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace gppm::sim {
namespace {

class PowerOnEveryBoard : public ::testing::TestWithParam<GpuModel> {
 protected:
  const DeviceSpec& spec() const { return device_spec(GetParam()); }
};

TEST_P(PowerOnEveryBoard, FullLoadNearCalibrationBudget) {
  const PowerCalibration& cal = spec().power;
  const double budget = cal.static_power.as_watts() +
                        cal.core_dynamic.as_watts() +
                        cal.mem_dynamic.as_watts();
  const Power p = gpu_power(spec(), kDefaultPair, 1.0, 1.0);
  EXPECT_NEAR(p.as_watts(), budget, 1e-9);
}

TEST_P(PowerOnEveryBoard, IdleBelowFullLoad) {
  const Power idle = gpu_idle_power(spec(), kDefaultPair);
  const Power full = gpu_power(spec(), kDefaultPair, 1.0, 1.0);
  EXPECT_LT(idle.as_watts(), full.as_watts());
  EXPECT_GT(idle.as_watts(), 0.0);
}

TEST_P(PowerOnEveryBoard, MonotonicInUtilization) {
  double prev = 0.0;
  for (double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double p = gpu_power(spec(), kDefaultPair, u, u).as_watts();
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST_P(PowerOnEveryBoard, LowerClocksLowerPower) {
  const double hh = gpu_power(spec(), kDefaultPair, 0.8, 0.8).as_watts();
  const double ml =
      gpu_power(spec(), {ClockLevel::Medium, ClockLevel::Low}, 0.8, 0.8)
          .as_watts();
  EXPECT_LT(ml, hh);
}

TEST_P(PowerOnEveryBoard, MemoryClockOnlyAffectsMemoryAndNothingElse) {
  const auto hh = gpu_power_breakdown(spec(), kDefaultPair, 0.5, 0.5);
  const auto hl = gpu_power_breakdown(
      spec(), {ClockLevel::High, ClockLevel::Low}, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(hh.static_power.as_watts(), hl.static_power.as_watts());
  EXPECT_DOUBLE_EQ(hh.core_dynamic.as_watts(), hl.core_dynamic.as_watts());
  EXPECT_LT(hl.mem_dynamic.as_watts(), hh.mem_dynamic.as_watts());
}

TEST_P(PowerOnEveryBoard, BreakdownSumsToTotal) {
  const auto b = gpu_power_breakdown(spec(), kDefaultPair, 0.7, 0.3);
  EXPECT_NEAR(b.total.as_watts(),
              b.static_power.as_watts() + b.core_dynamic.as_watts() +
                  b.mem_dynamic.as_watts(),
              1e-9);
}

TEST_P(PowerOnEveryBoard, RejectsOutOfRangeUtilization) {
  EXPECT_THROW(gpu_power(spec(), kDefaultPair, -0.1, 0.5), gppm::Error);
  EXPECT_THROW(gpu_power(spec(), kDefaultPair, 0.5, 1.1), gppm::Error);
}

INSTANTIATE_TEST_SUITE_P(AllBoards, PowerOnEveryBoard,
                         ::testing::ValuesIn(kAllGpus),
                         [](const ::testing::TestParamInfo<GpuModel>& p) {
                           std::string n = to_string(p.param);
                           n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
                           return n;
                         });

TEST(Power, TeslaCoreScalingIsWeakest) {
  // The ungated fraction makes the GTX 285's core power respond least to a
  // core clock drop — the root of the paper's near-zero Tesla headroom.
  auto drop = [](GpuModel m) {
    const DeviceSpec& spec = device_spec(m);
    const auto hh = gpu_power_breakdown(spec, kDefaultPair, 0.9, 0.1);
    const auto mh = gpu_power_breakdown(
        spec, {ClockLevel::Medium, ClockLevel::High}, 0.9, 0.1);
    return mh.core_dynamic.as_watts() / hh.core_dynamic.as_watts();
  };
  EXPECT_GT(drop(GpuModel::GTX285), drop(GpuModel::GTX460));
  EXPECT_GT(drop(GpuModel::GTX285), drop(GpuModel::GTX680));
}

TEST(Power, KeplerMediumStepCutsCorePowerDeeply) {
  // The GTX 680 (M) step runs near the low-voltage rail: the core V^2 f
  // factor drops below half, the mechanism behind the 75% best case.
  const DeviceSpec& spec = device_spec(GpuModel::GTX680);
  const double vf = spec.core_clock.voltage_sq_ratio(ClockLevel::Medium) *
                    spec.core_clock.frequency_ratio(ClockLevel::Medium);
  EXPECT_LT(vf, 0.5);
}

TEST(Power, MemoryBaselineDominatesOnGddr5Boards) {
  // Fermi/Kepler memory interfaces burn most of their power regardless of
  // utilization; Tesla's GDDR3 interface does not.
  EXPECT_GT(device_spec(GpuModel::GTX460).power.mem_baseline, 0.7);
  EXPECT_GT(device_spec(GpuModel::GTX480).power.mem_baseline, 0.7);
  EXPECT_LT(device_spec(GpuModel::GTX285).power.mem_baseline, 0.7);
}

}  // namespace
}  // namespace gppm::sim
