// cluster::FleetDisturber against real in-process fleets: the roller's
// full-sweep guarantee, counts that agree with the event log, and the
// seeded event order shared by two same-seed disturbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/disturb.hpp"
#include "core/dataset.hpp"

namespace gppm::cluster {
namespace {

const core::Dataset& dataset() {
  static const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  return ds;
}

const core::UnifiedModel& power_model() {
  static const core::UnifiedModel model =
      core::UnifiedModel::fit(dataset(), core::TargetKind::Power);
  return model;
}

const core::UnifiedModel& perf_model() {
  static const core::UnifiedModel model =
      core::UnifiedModel::fit(dataset(), core::TargetKind::ExecTime);
  return model;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::uint64_t count_prefix(const std::vector<std::string>& log,
                           const std::string& prefix) {
  std::uint64_t n = 0;
  for (const std::string& line : log) {
    if (line.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

/// Run a disturber against a fresh 3-node fleet for `run`, then stop it.
DisturbReport disturb(DisturberOptions options,
                      std::chrono::milliseconds run) {
  FleetOptions fopt;
  fopt.backends = 3;
  LocalFleet fleet(power_model(), perf_model(), fopt);
  FleetDisturber disturber(fleet, options);
  std::this_thread::sleep_for(run);
  DisturbReport report = disturber.stop();
  fleet.stop();
  return report;
}

TEST(ClusterDisturber, StopRightAfterStartStillFinishesOneRollingSweep) {
  DisturberOptions options;
  options.rolling = true;
  const DisturbReport report = disturb(options, std::chrono::milliseconds(0));
  EXPECT_GE(report.sweeps, 1u);
  EXPECT_GE(report.sweep_drains, 3u);
  EXPECT_EQ(report.lossy_sweeps, 0u);
  EXPECT_EQ(report.kills, 0u);
  EXPECT_TRUE(report.event_log.empty());
}

TEST(ClusterDisturber, KillAndDrainCountsMatchTheEventLog) {
  DisturberOptions options;
  options.seed = 5;
  options.kills = true;
  options.drain_every = Duration::milliseconds(10.0);
  const DisturbReport report =
      disturb(options, std::chrono::milliseconds(300));
  const std::vector<std::string> log = lines(report.event_log);
  EXPECT_GT(report.kills, 0u);
  EXPECT_GT(report.drains, 0u);
  EXPECT_EQ(count_prefix(log, "kill "), report.kills);
  EXPECT_EQ(count_prefix(log, "drain "), report.drains);
}

TEST(ClusterDisturber, SameSeedDisturbersAgreeOnTheirCommonPrefix) {
  DisturberOptions options;
  options.seed = 7;
  options.kills = true;
  const std::vector<std::string> a =
      lines(disturb(options, std::chrono::milliseconds(250)).event_log);
  const std::vector<std::string> b =
      lines(disturb(options, std::chrono::milliseconds(150)).event_log);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    EXPECT_EQ(a[i], b[i]) << "event " << i;
  }
}

}  // namespace
}  // namespace gppm::cluster
