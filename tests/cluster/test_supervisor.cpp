// Supervisor behaviors over a LocalFleet: a killed node is probed dead and
// restarted, a drained (off-ring) node is left alone, a lying monitoring
// plane (the supervisor.probe fault site) burns through the restart budget
// and flags the node instead of looping forever, and a healthy fleet is
// never touched.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/fleet.hpp"
#include "cluster/supervisor.hpp"
#include "core/dataset.hpp"
#include "fault/plan.hpp"

namespace gppm::cluster {
namespace {

const core::Dataset& dataset() {
  static const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  return ds;
}

core::UnifiedModel power_model() {
  return core::UnifiedModel::fit(dataset(), core::TargetKind::Power);
}

core::UnifiedModel perf_model() {
  return core::UnifiedModel::fit(dataset(), core::TargetKind::ExecTime);
}

RouterOptions quiet_router() {
  RouterOptions opt;
  opt.health_interval = Duration::seconds(0.0);
  return opt;
}

SupervisorOptions fast_supervisor() {
  SupervisorOptions opt;
  opt.probe_interval = Duration::milliseconds(2.0);
  opt.failure_threshold = 2;
  opt.initial_backoff = Duration::milliseconds(2.0);
  opt.max_backoff = Duration::milliseconds(20.0);
  return opt;
}

/// Poll `predicate` until it holds or `ms` elapse.
template <typename Predicate>
bool eventually(Predicate predicate, int ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

TEST(ClusterSupervisor, RestartsAKilledNode) {
  FleetOptions fopt;
  fopt.backends = 2;
  LocalFleet fleet(power_model(), perf_model(), fopt, quiet_router());
  // Killed before the supervisor starts: with it already probing every
  // 2 ms, a test thread descheduled for a few ms between the kill and the
  // check below would find the node restarted.
  fleet.kill(0);
  ASSERT_FALSE(fleet.alive(0));
  Supervisor supervisor(fleet, fast_supervisor());

  EXPECT_TRUE(eventually([&] { return fleet.alive(0); }, 3000))
      << "supervisor never restarted the killed node";
  supervisor.stop();

  const SupervisorStats stats = supervisor.stats();
  EXPECT_GE(stats.restarts, 1u);
  EXPECT_GE(stats.probe_failures, 2u);  // threshold's worth of misses
  EXPECT_GT(stats.probes, 0u);
}

TEST(ClusterSupervisor, LeavesDrainedNodesAlone) {
  FleetOptions fopt;
  fopt.backends = 2;
  LocalFleet fleet(power_model(), perf_model(), fopt, quiet_router());
  Supervisor supervisor(fleet, fast_supervisor());

  const DrainReport drain = fleet.drain_node(0);
  ASSERT_TRUE(drain.completed);
  ASSERT_FALSE(fleet.in_ring(0));
  ASSERT_FALSE(fleet.alive(0));

  // A planned removal is not a failure: the node stays down and skipped.
  EXPECT_TRUE(
      eventually([&] { return supervisor.stats().skipped_drained >= 5; },
                 3000));
  EXPECT_FALSE(fleet.alive(0));
  supervisor.stop();
  EXPECT_EQ(supervisor.stats().restarts, 0u);

  // rejoin() hands the node back to the supervisor's care.
  fleet.rejoin(0);
  EXPECT_TRUE(fleet.alive(0));
  EXPECT_TRUE(fleet.in_ring(0));
}

TEST(ClusterSupervisor, ProbeLossBurnsBudgetAndFlagsUnrecoverable) {
  // Every probe is "lost": the supervisor sees a healthy fleet as dead, so
  // no probe ever refills the budget and each node is restarted at most
  // restart_budget times before being flagged.
  fault::FaultInjector injector(
      fault::FaultPlan::parse_string("supervisor.probe p=1.0"), /*seed=*/5);
  FleetOptions fopt;
  fopt.backends = 2;
  LocalFleet fleet(power_model(), perf_model(), fopt, quiet_router());

  SupervisorOptions sopt = fast_supervisor();
  sopt.restart_budget = 2;
  sopt.injector = &injector;
  Supervisor supervisor(fleet, sopt);

  EXPECT_TRUE(
      eventually([&] { return supervisor.stats().budget_exhausted >= 2; },
                 5000))
      << "budget never exhausted under total probe loss";
  supervisor.stop();

  const SupervisorStats stats = supervisor.stats();
  EXPECT_GT(stats.probes_lost, 0u);
  EXPECT_GE(stats.probe_failures, stats.probes_lost);
  // Flagged once per node, then left alone: exactly budget * nodes
  // restarts, not an unbounded loop.
  EXPECT_EQ(stats.budget_exhausted, 2u);
  EXPECT_EQ(stats.restarts, 4u);
  // The restarts were spurious but harmless: the fleet still serves.
  serve::Request request;
  request.kind = serve::RequestKind::Predict;
  request.gpu = sim::GpuModel::GTX460;
  request.counters = dataset().samples[0].counters;
  EXPECT_TRUE(fleet.router().predict(request).ok());
}

TEST(ClusterSupervisor, HealthyFleetIsNeverRestarted) {
  FleetOptions fopt;
  fopt.backends = 2;
  LocalFleet fleet(power_model(), perf_model(), fopt, quiet_router());
  Supervisor supervisor(fleet, fast_supervisor());

  EXPECT_TRUE(
      eventually([&] { return supervisor.stats().probes >= 10; }, 3000));
  supervisor.stop();

  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_EQ(stats.budget_exhausted, 0u);
  EXPECT_TRUE(fleet.alive(0));
  EXPECT_TRUE(fleet.alive(1));
}

}  // namespace
}  // namespace gppm::cluster
