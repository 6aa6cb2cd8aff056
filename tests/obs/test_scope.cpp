// obs::Scope: a component's own counts read as registry rows.  Rows of one
// name and kind sum across live scopes, a scope destroyed while obs is
// enabled leaves its final rows in the snapshot until reset_values() (one
// destroyed while obs is off leaves none), and snapshot() is safe while
// scopes come and go under concurrent recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace gppm::obs {
namespace {

/// A component that keeps its own counts and exports them through a scope,
/// the shape net, cluster and serve components take.
class Component {
 public:
  explicit Component(std::string prefix)
      : prefix_(std::move(prefix)),
        scope_([this](MetricsSnapshot& rows) {
          rows.add_counter(prefix_ + ".events", events.value());
          rows.add_gauge(prefix_ + ".depth", depth);
          rows.add_histogram(prefix_ + ".latency", latency);
        }) {}

  Counter events;
  Gauge depth;
  Histogram latency;

 private:
  std::string prefix_;
  Scope scope_;  // last: destroyed before what it reads
};

/// Obs on for one test, off again after it.
struct EnabledGuard {
  EnabledGuard() { set_enabled(true); }
  ~EnabledGuard() { set_enabled(false); }
};

template <typename Row>
const Row* find_row(const std::vector<Row>& rows, const std::string& name) {
  const Row* found = nullptr;
  for (const Row& row : rows) {
    if (row.name != name) continue;
    EXPECT_EQ(found, nullptr) << name << " exported twice";
    found = &row;
  }
  return found;
}

TEST(ObsScope, TwoLiveScopesExportingOneNameSum) {
  set_enabled(false);  // constructed instruments record regardless
  Registry::instance().reset_values();
  Component a("test.scope.sum");
  Component b("test.scope.sum");
  a.events.add(3);
  b.events.add(4);
  a.depth.set(2);
  b.depth.add(6);
  b.depth.add(-1);
  a.latency.record(1.0);
  b.latency.record(1.0);
  b.latency.record(10.0);

  const MetricsSnapshot snap = Registry::instance().snapshot();
  const CounterRow* events = find_row(snap.counters, "test.scope.sum.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 7u);
  const GaugeRow* depth = find_row(snap.gauges, "test.scope.sum.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 7);
  EXPECT_EQ(depth->max, 8);  // 2 + 6: the maxima sum too
  const HistogramRow* latency =
      find_row(snap.histograms, "test.scope.sum.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 3u);
  EXPECT_NEAR(latency->sum, 12.0, 1e-9);
  std::uint64_t in_bins = 0;
  std::uint64_t fullest = 0;
  for (std::uint64_t n : latency->bin_counts) {
    in_bins += n;
    fullest = std::max(fullest, n);
  }
  EXPECT_EQ(in_bins, 3u);
  EXPECT_EQ(fullest, 2u);  // both 1.0 samples share a bin
}

TEST(ObsScope, DestroyedScopeCountsStayUntilResetValues) {
  EnabledGuard on;
  Registry::instance().reset_values();
  {
    Component gone("test.scope.retired");
    gone.events.add(5);
    gone.latency.record(2.0);
  }
  MetricsSnapshot snap = Registry::instance().snapshot();
  const CounterRow* events =
      find_row(snap.counters, "test.scope.retired.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 5u);
  const HistogramRow* latency =
      find_row(snap.histograms, "test.scope.retired.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);

  {
    // A live scope of the same name adds to the folded rows.
    Component live("test.scope.retired");
    live.events.add(1);
    snap = Registry::instance().snapshot();
    events = find_row(snap.counters, "test.scope.retired.events");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->value, 6u);
  }

  Registry::instance().reset_values();
  snap = Registry::instance().snapshot();
  EXPECT_EQ(find_row(snap.counters, "test.scope.retired.events"), nullptr);
  EXPECT_EQ(find_row(snap.histograms, "test.scope.retired.latency"),
            nullptr);
}

TEST(ObsScope, ScopeDestroyedWhileDisabledLeavesNoRows) {
  set_enabled(false);
  Registry::instance().reset_values();
  {
    Component gone("test.scope.unexported");
    gone.events.add(5);
    gone.latency.record(2.0);
    // Live, it reports whether or not obs is enabled.
    const MetricsSnapshot live = Registry::instance().snapshot();
    const CounterRow* events =
        find_row(live.counters, "test.scope.unexported.events");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->value, 5u);
  }
  // Dead, it left nothing in the registry: the folded rows follow the
  // enable flag like the registry's own instruments.
  const MetricsSnapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(find_row(snap.counters, "test.scope.unexported.events"),
            nullptr);
  EXPECT_EQ(find_row(snap.histograms, "test.scope.unexported.latency"),
            nullptr);
}

TEST(ObsScope, ScopedGaugeKeepsItsHighWater) {
  EnabledGuard on;
  Registry::instance().reset_values();
  {
    Component c("test.scope.gauge");
    c.depth.add(4);
    c.depth.add(-3);  // level 1, high-water 4
    const MetricsSnapshot live = Registry::instance().snapshot();
    const GaugeRow* depth = find_row(live.gauges, "test.scope.gauge.depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->value, 1);
    EXPECT_EQ(depth->max, 4);
  }
  const MetricsSnapshot folded = Registry::instance().snapshot();
  const GaugeRow* depth = find_row(folded.gauges, "test.scope.gauge.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 1);
  EXPECT_EQ(depth->max, 4);
}

TEST(ObsScope, SnapshotLoopsWhileThreadsRecordAndScopesComeAndGo) {
  EnabledGuard on;
  Registry::instance().reset_values();
  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 100;
  constexpr int kEventsPerScope = 50;
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int s = 0; s < kScopesPerThread; ++s) {
        Component c("test.scope.churn");
        for (int i = 0; i < kEventsPerScope; ++i) {
          c.depth.add(1);
          c.events.add();
          c.latency.record(static_cast<double>(i));
          c.depth.add(-1);
        }
      }
      finished.fetch_add(1);
    });
  }

  // Counts only grow: a scope's final rows move into the folded total in
  // the same critical section that removes it from the live set.
  std::uint64_t last = 0;
  do {
    const MetricsSnapshot snap = Registry::instance().snapshot();
    if (const CounterRow* events =
            find_row(snap.counters, "test.scope.churn.events")) {
      EXPECT_GE(events->value, last);
      last = events->value;
    }
  } while (finished.load() < kThreads);
  for (std::thread& t : threads) t.join();

  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) *
                              kScopesPerThread * kEventsPerScope;
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const CounterRow* events = find_row(snap.counters, "test.scope.churn.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, total);
  const HistogramRow* latency =
      find_row(snap.histograms, "test.scope.churn.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, total);
  const GaugeRow* depth = find_row(snap.gauges, "test.scope.churn.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);
  EXPECT_EQ(depth->max, kThreads * kScopesPerThread);  // each reached 1
}

}  // namespace
}  // namespace gppm::obs
