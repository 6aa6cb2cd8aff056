// Router behaviors against a scriptable fake backend: deterministic
// placement, failover + breaker trip, typed exhaustion, hedging on a slow
// primary, the submit() future contract, and membership-change rerouting.
// The fake answers instantly (or after a scripted delay on a private
// thread) with a per-backend power constant, so each response identifies
// who served it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "common/error.hpp"
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
    ++submits_;
    if (always_throw_.load()) throw Error(name_ + " is down");
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

  bool ping() override { return !always_throw_.load(); }

  void set_down(bool down) { always_throw_.store(down); }
  void set_delay_seconds(double s) { delay_seconds_.store(s); }
  std::uint64_t submits() const { return submits_.load(); }
  double power_constant() const { return canned_.power_watts; }

 private:
  std::string name_;
  serve::Response canned_;
  std::atomic<bool> always_throw_{false};
  std::atomic<double> delay_seconds_{0.0};
  std::atomic<std::uint64_t> submits_{0};
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
  opt.health_interval = Duration::seconds(0.0);  // tests drive breakers
  return opt;
}

/// Index of a request whose ring primary is `want` — computed on a shadow
/// ring with the router's member names, since placement is a pure function
/// of (names, key).
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

TEST(ClusterRouter, RoutesDeterministicallyAndSpreadsKeys) {
  Router router(quiet_options());
  auto a = std::make_shared<FakeBackend>("alpha", 100.0);
  auto b = std::make_shared<FakeBackend>("beta", 200.0);
  router.add_backend(a);
  router.add_backend(b);

  // Same request, ten times: always the same server answers.
  const serve::Request pinned = make_request(0);
  const double first = router.predict(pinned).power_watts;
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(router.predict(pinned).power_watts, first);
  }

  // Distinct keys land on both backends.
  for (int i = 1; i <= 40; ++i) router.predict(make_request(i));
  EXPECT_GT(a->submits(), 0u);
  EXPECT_GT(b->submits(), 0u);
  EXPECT_EQ(router.stats().requests, 50u);
  EXPECT_EQ(router.stats().failovers, 0u);
}

TEST(ClusterRouter, NoBackendsThrowsTypedError) {
  Router router(quiet_options());
  EXPECT_THROW(router.predict(make_request(0)), Error);
}

TEST(ClusterRouter, FailoverCoversDeadBackendAndTripsItsBreaker) {
  RouterOptions opt = quiet_options();
  opt.breaker.failure_threshold = 3;
  Router router(opt);
  auto dead = std::make_shared<FakeBackend>("dead", 100.0);
  auto live = std::make_shared<FakeBackend>("live", 200.0);
  dead->set_down(true);
  router.add_backend(dead);
  router.add_backend(live);

  // With replicas=2 every key's candidate list holds both nodes, so every
  // answer must come from the live one — failover, not failure.
  for (int i = 0; i < 30; ++i) {
    const serve::Response r = router.predict(make_request(i));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.power_watts, live->power_constant());
  }
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.failovers, 0u);
  // Three consecutive launch failures tripped the breaker; with no health
  // loop nothing probes it back, and later keys whose primary is `dead`
  // are rerouted without a submit (breaker_rejections).
  EXPECT_EQ(router.breaker_state("dead"), BreakerState::Open);
  EXPECT_EQ(router.breaker_state("live"), BreakerState::Closed);
  EXPECT_GT(stats.breaker_rejections, 0u);
  EXPECT_LE(dead->submits(), 3u);
}

TEST(ClusterRouter, AllReplicasFailedAnswersTypedInternalError) {
  Router router(quiet_options());
  auto only = std::make_shared<FakeBackend>("only", 100.0);
  only->set_down(true);
  router.add_backend(only);

  const serve::Response r = router.predict(make_request(0));  // never throws
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, serve::ResponseStatus::InternalError);
  EXPECT_FALSE(r.error.empty());
  EXPECT_GT(router.stats().exhausted, 0u);
}

TEST(ClusterRouter, HedgeFiresOnSlowPrimaryAndFastReplicaWins) {
  RouterOptions opt;
  opt.health_interval = Duration::seconds(0.0);
  opt.hedging = true;
  // Pin the trigger: no warm-up requirement, and the clamp window is a
  // point, so the hedge fires exactly 2 ms into a slow primary.
  opt.hedge_min_samples = 0;
  opt.hedge_min_delay = Duration::milliseconds(2.0);
  opt.hedge_max_delay = Duration::milliseconds(2.0);
  Router router(opt);
  auto slow = std::make_shared<FakeBackend>("slow", 100.0);
  auto fast = std::make_shared<FakeBackend>("fast", 200.0);
  slow->set_delay_seconds(0.040);
  router.add_backend(slow);
  router.add_backend(fast);
  EXPECT_DOUBLE_EQ(router.hedge_delay().as_seconds(), 2e-3);

  const int i = request_owned_by({"slow", "fast"}, "slow");
  const serve::Response r = router.predict(make_request(i));
  ASSERT_TRUE(r.ok());
  // The fast replica's answer came back first; the slow flight was
  // abandoned, not awaited — well under the 40 ms primary delay.
  EXPECT_EQ(r.power_watts, fast->power_constant());
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.hedges_abandoned, 1u);
  EXPECT_EQ(stats.failovers, 0u);  // a hedge is not a failover
}

TEST(ClusterRouter, EmptyLatencyWindowHasNoQuantileEstimate) {
  // Regression: an empty tracker answered 0.0, which callers clamping into
  // a delay band turned into the *aggressive* floor.  "No samples" is "no
  // estimate" — the sentinel is +inf so such clamps land on the ceiling.
  obs::Histogram tracker;
  EXPECT_TRUE(std::isinf(tracker.quantile(0.0)));
  EXPECT_TRUE(std::isinf(tracker.quantile(0.5)));
  EXPECT_TRUE(std::isinf(tracker.quantile(0.99)));
}

TEST(ClusterRouter, SingleSampleWindowAnswersItsOwnBinAtEveryQuantile) {
  // Regression: rank was the fractional q * total compared with >=, so
  // q == 0 (rank 0) matched the empty bin 0 and reported ~1.19 us for a
  // window whose only sample was 10 ms.  Every quantile of a one-sample
  // window must return that sample's own bin edge.
  obs::Histogram tracker;
  tracker.record(0.010);  // 10 ms
  const double edge = tracker.quantile(0.5);
  EXPECT_GT(edge, 0.008);
  EXPECT_LT(edge, 0.014);  // one 10^0.1 (~26 %) log bin at 10 ms
  EXPECT_DOUBLE_EQ(tracker.quantile(0.0), edge);
  EXPECT_DOUBLE_EQ(tracker.quantile(0.99), edge);
  EXPECT_DOUBLE_EQ(tracker.quantile(1.0), edge);
}

TEST(ClusterRouter, HedgeWaitsAtCeilingBeforeAnyLatencyIsObserved) {
  // Regression: with hedge_min_samples == 0 an unwarmed router computed
  // quantile() == 0.0 and clamped to hedge_min_delay — hedging every
  // request at the most aggressive trigger before a single latency had
  // been observed.  The no-estimate sentinel now clamps to the ceiling.
  RouterOptions opt;
  opt.health_interval = Duration::seconds(0.0);
  opt.hedging = true;
  opt.hedge_min_samples = 0;
  opt.hedge_min_delay = Duration::milliseconds(0.5);
  opt.hedge_max_delay = Duration::milliseconds(100.0);
  Router router(opt);
  EXPECT_DOUBLE_EQ(router.hedge_delay().as_seconds(),
                   opt.hedge_max_delay.as_seconds());
}

TEST(ClusterRouter, SubmitDeliversThroughFutureAndThrowsAfterStop) {
  Router router(quiet_options());
  auto a = std::make_shared<FakeBackend>("alpha", 100.0);
  router.add_backend(a);

  std::vector<std::future<serve::Response>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) futures.push_back(router.submit(make_request(i)));
  for (std::future<serve::Response>& f : futures) {
    const serve::Response r = f.get();  // never an exception once enqueued
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.power_watts, a->power_constant());
  }

  router.stop();
  EXPECT_THROW(router.submit(make_request(0)), Error);
  EXPECT_THROW(router.predict(make_request(0)), Error);
}

TEST(ClusterRouter, RemoveBackendReroutesItsKeys) {
  Router router(quiet_options());
  auto a = std::make_shared<FakeBackend>("alpha", 100.0);
  auto b = std::make_shared<FakeBackend>("beta", 200.0);
  router.add_backend(a);
  router.add_backend(b);

  const int i = request_owned_by({"alpha", "beta"}, "alpha");
  EXPECT_EQ(router.predict(make_request(i)).power_watts, a->power_constant());

  router.remove_backend("alpha");
  EXPECT_EQ(router.backends(), std::vector<std::string>{"beta"});
  const serve::Response r = router.predict(make_request(i));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.power_watts, b->power_constant());

  router.remove_backend("ghost");  // unknown names are a no-op
  EXPECT_EQ(router.backends().size(), 1u);
}

TEST(ClusterRouter, BreakerOpensNeverDecreaseWhenABackendLeaves) {
  RouterOptions opt = quiet_options();
  opt.replicas = 3;
  opt.breaker.failure_threshold = 1;
  Router router(opt);
  const std::vector<std::string> names = {"removed", "drained", "live"};
  auto removed = std::make_shared<FakeBackend>("removed", 100.0);
  auto drained = std::make_shared<FakeBackend>("drained", 200.0);
  removed->set_down(true);
  drained->set_down(true);
  router.add_backend(removed);
  router.add_backend(drained);
  router.add_backend(std::make_shared<FakeBackend>("live", 300.0));

  // One request whose primary is each dead backend trips both breakers;
  // failover answers from the live one.
  for (const char* dead : {"removed", "drained"}) {
    EXPECT_TRUE(
        router.predict(make_request(request_owned_by(names, dead))).ok());
  }
  ASSERT_EQ(router.breaker_state("removed"), BreakerState::Open);
  ASSERT_EQ(router.breaker_state("drained"), BreakerState::Open);
  const std::uint64_t opens = router.stats().breaker_opens;
  EXPECT_EQ(opens, 2u);

  router.remove_backend("removed");
  EXPECT_EQ(router.stats().breaker_opens, opens);
  EXPECT_TRUE(router.drain_backend("drained").completed);
  EXPECT_EQ(router.stats().breaker_opens, opens);
}

TEST(ClusterRouter, ExportsTheBreakerOpensItsStatsReport) {
  obs::set_enabled(true);
  obs::Registry::instance().reset_values();
  {
    RouterOptions opt = quiet_options();  // no health loop
    opt.breaker.failure_threshold = 1;
    Router router(opt);
    auto a = std::make_shared<FakeBackend>("alpha", 100.0);
    a->set_down(true);
    router.add_backend(a);
    router.predict(make_request(0));  // trips the only breaker
    const std::uint64_t opens = router.stats().breaker_opens;
    EXPECT_EQ(opens, 1u);

    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    bool exported = false;
    for (const obs::CounterRow& c : snap.counters) {
      if (c.name != "cluster.router.breaker_opens") continue;
      exported = true;
      EXPECT_EQ(c.value, opens);
    }
    EXPECT_TRUE(exported);
  }
  obs::set_enabled(false);
}

TEST(ClusterRouter, HealthReflectsBreakerAdmission) {
  RouterOptions opt = quiet_options();
  opt.breaker.failure_threshold = 1;
  Router router(opt);
  auto a = std::make_shared<FakeBackend>("alpha", 100.0);
  router.add_backend(a);
  EXPECT_TRUE(router.health().accepting);
  EXPECT_EQ(router.health().boards, 1u);

  a->set_down(true);
  router.predict(make_request(0));  // trips the only breaker
  ASSERT_EQ(router.breaker_state("alpha"), BreakerState::Open);
  EXPECT_FALSE(router.health().accepting);
}

}  // namespace
}  // namespace gppm::cluster
