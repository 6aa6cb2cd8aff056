// Drain/handoff semantics at both layers: Router::drain_backend against a
// scriptable fake (idle drain, live handoff, timeout, the slow-drain fault
// site, unknown-name no-op), LocalFleet's planned lifecycle
// (add_node/drain_node/rejoin/rolling_restart) against real models, and
// the ChaosSchedule determinism contract behind `gppm loadgen --seed`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fleet.hpp"
#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "cluster/schedule.hpp"
#include "core/dataset.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"

namespace gppm::cluster {
namespace {

class FakeBackend : public Backend {
 public:
  FakeBackend(std::string name, double power_constant)
      : name_(std::move(name)) {
    canned_.kind = serve::RequestKind::Predict;
    canned_.status = serve::ResponseStatus::Ok;
    canned_.power_watts = power_constant;
    canned_.time_seconds = 0.125;
    canned_.energy_joules = power_constant * 0.125;
  }

  ~FakeBackend() override {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::thread& t : delayers_) t.join();
  }

  const std::string& name() const override { return name_; }

  std::future<serve::Response> submit(const serve::Request&) override {
    std::promise<serve::Response> promise;
    std::future<serve::Response> future = promise.get_future();
    const double delay_s = delay_seconds_.load();
    if (delay_s > 0.0) {
      std::lock_guard<std::mutex> lock(mutex_);
      delayers_.emplace_back(
          [promise = std::move(promise), delay_s, r = canned_]() mutable {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay_s));
            promise.set_value(r);
          });
    } else {
      promise.set_value(canned_);
    }
    return future;
  }

  bool ping() override { return true; }

  void set_delay_seconds(double s) { delay_seconds_.store(s); }
  double power_constant() const { return canned_.power_watts; }

 private:
  std::string name_;
  serve::Response canned_;
  std::atomic<double> delay_seconds_{0.0};
  std::mutex mutex_;
  std::vector<std::thread> delayers_;
};

serve::Request make_request(int i) {
  serve::Request r;
  r.kind = serve::RequestKind::Predict;
  r.gpu = sim::GpuModel::GTX460;
  r.counters.counters.push_back({"k" + std::to_string(i),
                                 profiler::EventClass::Core,
                                 static_cast<double>(i), 1.0});
  return r;
}

RouterOptions quiet_options() {
  RouterOptions opt;
  opt.hedging = false;
  opt.health_interval = Duration::seconds(0.0);
  return opt;
}

int request_owned_by(const std::vector<std::string>& members,
                     const std::string& want) {
  HashRing ring;
  for (const std::string& m : members) ring.add(m);
  for (int i = 0; i < 1000; ++i) {
    if (ring.owner(request_key(make_request(i))) == want) return i;
  }
  ADD_FAILURE() << "no request found with primary " << want;
  return 0;
}

TEST(ClusterDrain, IdleBackendDrainsImmediatelyAndKeysRemap) {
  Router router(quiet_options());
  auto a = std::make_shared<FakeBackend>("alpha", 100.0);
  auto b = std::make_shared<FakeBackend>("beta", 200.0);
  router.add_backend(a);
  router.add_backend(b);

  const int i = request_owned_by({"alpha", "beta"}, "alpha");
  ASSERT_EQ(router.predict(make_request(i)).power_watts, a->power_constant());

  const DrainReport report = router.drain_backend("alpha");
  EXPECT_EQ(report.backend, "alpha");
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.zero_loss);
  EXPECT_EQ(report.in_flight_at_start, 0u);
  EXPECT_EQ(report.handed_off, 0u);
  EXPECT_FALSE(router.draining("alpha"));

  // alpha's keys now belong to the post-removal owners.
  EXPECT_EQ(router.backends(), std::vector<std::string>{"beta"});
  EXPECT_EQ(router.predict(make_request(i)).power_watts, b->power_constant());
  EXPECT_EQ(router.stats().drains, 1u);
}

TEST(ClusterDrain, UnknownNameIsCompletedNoOp) {
  Router router(quiet_options());
  router.add_backend(std::make_shared<FakeBackend>("alpha", 100.0));

  const DrainReport report = router.drain_backend("ghost");
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.zero_loss);
  EXPECT_EQ(report.handed_off, 0u);
  EXPECT_EQ(router.backends().size(), 1u);
  EXPECT_EQ(router.stats().drains, 0u);  // a no-op is not a drain
}

TEST(ClusterDrain, InFlightRequestHandsOffAndCompletesOnLeaver) {
  Router router(quiet_options());
  auto slow = std::make_shared<FakeBackend>("slow", 100.0);
  auto fast = std::make_shared<FakeBackend>("fast", 200.0);
  slow->set_delay_seconds(0.030);
  router.add_backend(slow);
  router.add_backend(fast);

  // Park one request on the leaver, then drain while it is in flight.
  const int i = request_owned_by({"slow", "fast"}, "slow");
  std::future<serve::Response> inflight = router.submit(make_request(i));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.in_flight("slow") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(router.in_flight("slow"), 1);

  const DrainReport report =
      router.drain_backend("slow", Duration::seconds(5.0));
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.zero_loss);
  EXPECT_EQ(report.in_flight_at_start, 1u);
  EXPECT_EQ(report.handed_off, 1u);
  EXPECT_GE(report.duration.as_seconds(), 0.0);

  // The handed-off request finished on the backend it was routed to.
  const serve::Response r = inflight.get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.power_watts, slow->power_constant());
  EXPECT_EQ(router.stats().drain_handed_off, 1u);
}

TEST(ClusterDrain, TimeoutReportsIncompleteDrain) {
  Router router(quiet_options());
  auto slow = std::make_shared<FakeBackend>("slow", 100.0);
  auto fast = std::make_shared<FakeBackend>("fast", 200.0);
  slow->set_delay_seconds(0.200);
  router.add_backend(slow);
  router.add_backend(fast);

  const int i = request_owned_by({"slow", "fast"}, "slow");
  std::future<serve::Response> inflight = router.submit(make_request(i));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.in_flight("slow") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(router.in_flight("slow"), 1);

  const DrainReport report =
      router.drain_backend("slow", Duration::milliseconds(10.0));
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.zero_loss);
  // The straggler still finishes correctly: drain never cancels work.
  EXPECT_TRUE(inflight.get().ok());
}

TEST(ClusterDrain, SlowDrainFaultSiteStretchesTheHandoffWindow) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse_string("cluster.drain.slow p=1.0 mag=20.0"),
      /*seed=*/1);
  RouterOptions opt = quiet_options();
  opt.injector = &injector;
  Router router(opt);
  router.add_backend(std::make_shared<FakeBackend>("alpha", 100.0));
  router.add_backend(std::make_shared<FakeBackend>("beta", 200.0));

  const DrainReport report = router.drain_backend("alpha");
  // The stall stretches the window but never changes the verdict.
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.zero_loss);
  EXPECT_GE(report.duration.as_seconds(), 0.020);
}

// ---------------------------------------------------------------------------
// LocalFleet planned lifecycle, against real fitted models.

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

serve::Request predict_request(std::size_t sample_index) {
  serve::Request r;
  r.kind = serve::RequestKind::Predict;
  r.gpu = sim::GpuModel::GTX460;
  r.counters = dataset().samples[sample_index % dataset().samples.size()]
                   .counters;
  return r;
}

TEST(ClusterFleetReconfig, AddDrainRejoinLifecycle) {
  FleetOptions fopt;
  fopt.backends = 2;
  RouterOptions ropt;
  ropt.health_interval = Duration::seconds(0.0);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);
  ASSERT_EQ(fleet.size(), 2u);

  // Grow live: the new node is on the ring and serving.
  const std::size_t added = fleet.add_node();
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(fleet.size(), 3u);
  EXPECT_TRUE(fleet.in_ring(added));
  EXPECT_TRUE(fleet.alive(added));
  EXPECT_EQ(fleet.router().backends().size(), 3u);
  EXPECT_TRUE(fleet.router().predict(predict_request(0)).ok());

  // Planned removal: off the ring, engine down, traffic still answered.
  const DrainReport drain = fleet.drain_node(0);
  EXPECT_TRUE(drain.completed);
  EXPECT_TRUE(drain.zero_loss);
  EXPECT_FALSE(fleet.in_ring(0));
  EXPECT_FALSE(fleet.alive(0));
  EXPECT_EQ(fleet.router().backends().size(), 2u);
  EXPECT_TRUE(fleet.router().predict(predict_request(1)).ok());

  // Rejoin: fresh engine, back on the ring; idempotent for members.
  fleet.rejoin(0);
  EXPECT_TRUE(fleet.in_ring(0));
  EXPECT_TRUE(fleet.alive(0));
  EXPECT_EQ(fleet.router().backends().size(), 3u);
  fleet.rejoin(0);  // no-op
  EXPECT_EQ(fleet.router().backends().size(), 3u);
  EXPECT_TRUE(fleet.probe(0));
}

TEST(ClusterFleetReconfig, RollingRestartIsZeroLossUnderTraffic) {
  // Ground truth from a plain single-node server on the same pair.
  constexpr std::size_t kSamples = 8;
  std::vector<serve::Response> truth;
  {
    serve::PredictionServer reference;
    reference.load_models(power_model(), perf_model());
    for (std::size_t i = 0; i < kSamples; ++i) {
      truth.push_back(reference.submit(predict_request(i)).get());
      ASSERT_TRUE(truth.back().ok());
    }
  }

  FleetOptions fopt;
  fopt.backends = 3;
  RouterOptions ropt;
  ropt.replicas = 2;
  ropt.health_interval = Duration::milliseconds(5.0);
  ropt.breaker.cooldown = std::chrono::milliseconds(20);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> not_ok{0};
  std::atomic<std::uint64_t> divergent{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!done.load()) {
        const std::size_t sample = i++ % kSamples;
        const serve::Response r =
            fleet.router().predict(predict_request(sample));
        ++answered;
        if (!r.ok()) {
          ++not_ok;
        } else if (!serve::bit_identical(r, truth[sample])) {
          ++divergent;
        }
      }
    });
  }

  // Let traffic establish, then upgrade the whole fleet in place.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const RollingRestartReport report = fleet.rolling_restart();
  done.store(true);
  for (std::thread& t : load) t.join();

  // Every in-ring node was cycled, nothing was lost, and the planned path
  // never produced a wrong or refused answer.
  EXPECT_EQ(report.drains.size(), 3u);
  EXPECT_TRUE(report.zero_loss);
  for (const DrainReport& drain : report.drains) {
    EXPECT_TRUE(drain.completed) << drain.backend;
    EXPECT_TRUE(drain.zero_loss) << drain.backend;
  }
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(divergent.load(), 0u);
  EXPECT_EQ(not_ok.load(), 0u);
  EXPECT_EQ(fleet.router().backends().size(), 3u);
  EXPECT_TRUE(fleet.router().health().accepting);
}

// ---------------------------------------------------------------------------
// ChaosSchedule: the determinism contract behind `gppm loadgen --seed`.

TEST(ClusterChaosSchedule, SameSeedEmitsIdenticalLogs) {
  const ChaosSchedule::Options options{/*seed=*/11, /*nodes=*/3,
                                       /*drains=*/true, /*kills=*/true};
  ChaosSchedule a(options);
  ChaosSchedule b(options);
  for (int i = 0; i < 200; ++i) {
    const ChaosEvent ea = a.next();
    const ChaosEvent eb = b.next();
    ASSERT_EQ(ea.action, eb.action) << "event " << i;
    ASSERT_EQ(ea.node, eb.node) << "event " << i;
  }
  EXPECT_EQ(a.log().size(), 200u);
  EXPECT_FALSE(a.log_string().empty());
  EXPECT_EQ(a.log_string(), b.log_string());
}

TEST(ClusterChaosSchedule, DifferentSeedsDiverge) {
  ChaosSchedule a({/*seed=*/1, /*nodes=*/3, /*drains=*/true, /*kills=*/true});
  ChaosSchedule b({/*seed=*/2, /*nodes=*/3, /*drains=*/true, /*kills=*/true});
  for (int i = 0; i < 100; ++i) {
    a.next();
    b.next();
  }
  EXPECT_NE(a.log_string(), b.log_string());
}

TEST(ClusterChaosSchedule, DisturbancesPairWithRecoveries) {
  ChaosSchedule schedule(
      {/*seed=*/7, /*nodes=*/4, /*drains=*/true, /*kills=*/true});
  // Replay the stream against a mode model: a node is only killed/drained
  // from Up, only restarted from Killed, only rejoined from Drained — and
  // the fleet never goes fully dark.
  enum class Mode { Up, Killed, Drained };
  std::vector<Mode> modes(4, Mode::Up);
  for (int i = 0; i < 500; ++i) {
    const ChaosEvent event = schedule.next();
    ASSERT_LT(event.node, modes.size());
    switch (event.action) {
      case ChaosAction::Kill:
        ASSERT_EQ(modes[event.node], Mode::Up) << "event " << i;
        modes[event.node] = Mode::Killed;
        break;
      case ChaosAction::Drain:
        ASSERT_EQ(modes[event.node], Mode::Up) << "event " << i;
        modes[event.node] = Mode::Drained;
        break;
      case ChaosAction::Restart:
        ASSERT_EQ(modes[event.node], Mode::Killed) << "event " << i;
        modes[event.node] = Mode::Up;
        break;
      case ChaosAction::Rejoin:
        ASSERT_EQ(modes[event.node], Mode::Drained) << "event " << i;
        modes[event.node] = Mode::Up;
        break;
    }
    std::size_t up = 0;
    for (const Mode mode : modes) {
      if (mode == Mode::Up) ++up;
    }
    ASSERT_GE(up, 1u) << "fleet fully dark after event " << i;
  }
}

TEST(ClusterChaosSchedule, SingleFamilyStreamsStayInFamily) {
  ChaosSchedule drains(
      {/*seed=*/3, /*nodes=*/3, /*drains=*/true, /*kills=*/false});
  ChaosSchedule kills(
      {/*seed=*/3, /*nodes=*/3, /*drains=*/false, /*kills=*/true});
  for (int i = 0; i < 100; ++i) {
    const ChaosAction d = drains.next().action;
    EXPECT_TRUE(d == ChaosAction::Drain || d == ChaosAction::Rejoin);
    const ChaosAction k = kills.next().action;
    EXPECT_TRUE(k == ChaosAction::Kill || k == ChaosAction::Restart);
  }
}

TEST(ClusterFleetReconfig, ConcurrentDrainRejoinAndRollKeepTheRingServing) {
  FleetOptions fopt;
  fopt.backends = 3;
  RouterOptions ropt;
  ropt.health_interval = Duration::milliseconds(5.0);
  ropt.breaker.cooldown = std::chrono::milliseconds(20);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> threw{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!done.load()) {
        try {
          (void)fleet.router().predict(predict_request(i++));
          ++answered;
        } catch (const std::exception&) {
          ++threw;
        }
      }
    });
  }

  // The drain scheduler's shape: drain every node, then rejoin them.  The
  // ring's last member is refused whatever the roller is doing, since
  // each roller step puts back the node it took out.
  std::atomic<int> refused_last{0};
  std::atomic<int> planner_errors{0};
  std::thread scheduler([&] {
    try {
      for (int round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < 3; ++i) {
          if (fleet.drain_node(i).refused) ++refused_last;
        }
        for (std::size_t i = 0; i < 3; ++i) fleet.rejoin(i);
      }
    } catch (const std::exception&) {
      ++planner_errors;
    }
  });
  std::thread roller([&] {
    try {
      for (int sweep = 0; sweep < 3; ++sweep) (void)fleet.rolling_restart();
    } catch (const std::exception&) {
      ++planner_errors;
    }
  });
  scheduler.join();
  roller.join();
  done.store(true);
  for (std::thread& t : load) t.join();

  EXPECT_EQ(planner_errors.load(), 0);
  EXPECT_EQ(threw.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(refused_last.load(), 4);
  EXPECT_EQ(fleet.router().backends().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(fleet.alive(i)) << i;
}

TEST(ClusterFleetReconfig, SnapshotLoopsWhileAFleetServesDrainsAndRejoins) {
  // On, so the engines that die during the drains fold into the registry.
  obs::set_enabled(true);
  obs::Registry::instance().reset_values();
  FleetOptions fopt;
  fopt.backends = 2;
  RouterOptions ropt;
  ropt.health_interval = Duration::milliseconds(5.0);
  LocalFleet fleet(power_model(), perf_model(), fopt, ropt);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> routed{0};
  std::thread load([&] {
    std::size_t i = 0;
    while (!done.load()) {
      (void)fleet.router().predict(predict_request(i++));
      ++routed;
    }
  });
  std::atomic<bool> planned{false};
  std::thread planner([&] {
    for (int round = 0; round < 5; ++round) {
      EXPECT_FALSE(fleet.drain_node(1).refused);
      fleet.rejoin(1);
    }
    planned.store(true);
  });

  // Node 1's engine dies and is rebuilt under the snapshots; its served
  // count must never go backwards.
  const auto served = [](const obs::MetricsSnapshot& snap) {
    for (const obs::CounterRow& c : snap.counters) {
      if (c.name == "serve.requests") return c.value;
    }
    return std::uint64_t{0};
  };
  std::uint64_t last = 0;
  do {
    const std::uint64_t now = served(obs::Registry::instance().snapshot());
    EXPECT_GE(now, last);
    last = now;
  } while (!planned.load());
  planner.join();
  done.store(true);
  load.join();

  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  bool exported = false;
  for (const obs::CounterRow& c : snap.counters) {
    if (c.name != "cluster.router.requests") continue;
    exported = true;
    EXPECT_EQ(c.value, routed.load());
  }
  EXPECT_TRUE(exported);
  EXPECT_GE(served(snap), last);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace gppm::cluster
