#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "obs/export.hpp"

// ---------------------------------------------------------------------------
// Allocation counting for the disabled-mode zero-cost check.  The overrides
// are process-wide, so they forward to malloc/free and only bump an atomic —
// cheap enough for the rest of the binary not to notice.  The nothrow forms
// are replaced too (std::stable_sort's temporary buffer uses them): memory
// from the default nothrow new would otherwise reach the free() below,
// which AddressSanitizer reports as an alloc-dealloc mismatch.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// noinline keeps GCC from inlining these free() calls into callers of the
// replaced operator new, where -Wmismatched-new-delete would flag them.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]]
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]]
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gppm::obs {
namespace {

/// Restores the disabled default however a test exits, so suites sharing the
/// process never observe each other's enable flag.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

TEST(ObsRegistry, DisabledInstrumentsDoNotMove) {
  set_enabled(false);
  Counter& c = Registry::instance().counter("test.disabled_counter");
  Gauge& g = Registry::instance().gauge("test.disabled_gauge");
  Histogram& h = Registry::instance().histogram("test.disabled_hist");
  const std::uint64_t c0 = c.value();
  c.add(5);
  g.set(42);
  g.add(7);
  h.record(3.0);
  EXPECT_EQ(c.value(), c0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsRegistry, CounterGaugeHistogramRecordWhenEnabled) {
  EnabledGuard on(true);
  Counter& c = Registry::instance().counter("test.counter");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);

  Gauge& g = Registry::instance().gauge("test.gauge");
  g.set(5);
  g.add(3);   // level 8, max 8
  g.add(-6);  // level 2, max stays 8
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 8);

  Histogram& h = Registry::instance().histogram("test.hist");
  h.record(0.5);    // bin (0.398, 0.501]
  h.record(0.45);   // same bin
  h.record(7.0);    // bin (6.31, 7.94]
  h.record(100.0);  // bin (79.4, 100] (le semantics: v <= upper edge)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 107.95, 1e-6);
  const std::vector<std::uint64_t> bins = h.bin_counts();
  ASSERT_EQ(bins.size(), Histogram::kBins);
  std::vector<std::pair<double, std::uint64_t>> filled;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] > 0) filled.emplace_back(Histogram::upper_edge(i), bins[i]);
  }
  ASSERT_EQ(filled.size(), 3u);
  EXPECT_NEAR(filled[0].first, 0.501, 1e-3);
  EXPECT_EQ(filled[0].second, 2u);
  EXPECT_NEAR(filled[1].first, 7.94, 1e-2);
  EXPECT_EQ(filled[1].second, 1u);
  EXPECT_NEAR(filled[2].first, 100.0, 1e-9);
  EXPECT_EQ(filled[2].second, 1u);
}

TEST(ObsRegistry, FindOrCreateIsStable) {
  Counter& a = Registry::instance().counter("test.same_name");
  Counter& b = Registry::instance().counter("test.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = Registry::instance().histogram("test.same_hist");
  Histogram& h2 = Registry::instance().histogram("test.same_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, SnapshotSortsByNameAndReportsActivity) {
  EnabledGuard on(true);
  Registry::instance().counter("test.zz_last").add();
  Registry::instance().counter("test.aa_first").add();
  const MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  EXPECT_TRUE(snap.has_activity("test.zz_last"));
  EXPECT_FALSE(snap.has_activity("no.such.prefix"));
}

TEST(ObsRegistry, ConcurrentRecordingUnderParallelForIsExact) {
  EnabledGuard on(true);
  Counter& c = Registry::instance().counter("test.par_counter");
  Gauge& g = Registry::instance().gauge("test.par_gauge");
  Histogram& h = Registry::instance().histogram("test.par_hist");
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();

  constexpr std::size_t kIters = 20000;
  parallel_for(kIters, [&](std::size_t i) {
    c.add();
    g.add(1);
    h.record(static_cast<double>(i % 200));
    g.add(-1);
  });

  EXPECT_EQ(c.value() - c0, kIters);
  EXPECT_EQ(h.count() - h0, kIters);
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.max(), 1);
}

/// The upper edge a histogram reports for a lone sample `v`.
double edge_of(double v) {
  Histogram one;
  one.record(v);
  return one.quantile(0.5);
}

TEST(ObsHistogram, EmptyQuantileIsInfinite) {
  Histogram h;
  EXPECT_TRUE(std::isinf(h.quantile(0.0)));
  EXPECT_TRUE(std::isinf(h.quantile(0.5)));
  EXPECT_TRUE(std::isinf(h.quantile(1.0)));
}

TEST(ObsHistogram, LoneSampleAnswersItsOwnBinEdgeAtEveryQuantile) {
  // None of these sits on a bin edge.
  for (double v : {3.3e-6, 0.0261, 7.0, 1234.5, 4.2e8}) {
    Histogram h;
    h.record(v);
    const double edge = h.quantile(0.5);
    EXPECT_GE(edge, v);
    EXPECT_LT(edge, v * std::pow(10.0, 0.1));
    EXPECT_EQ(h.quantile(0.0), edge) << v;
    EXPECT_EQ(h.quantile(1.0), edge) << v;
  }
}

TEST(ObsHistogram, QuantileIsTheEdgeOfTheRankedSample) {
  const std::vector<double> sorted = {2e-6, 3.3e-6, 4.4e-6, 9e-5, 1.5e-3,
                                      0.02, 0.7,    3.0,    45.0, 800.0};
  Histogram h;
  for (double v : sorted) h.record(v);
  const double n = static_cast<double>(sorted.size());
  for (double q : {0.0, 0.05, 0.1, 0.25, 0.5, 0.55, 0.9, 0.99, 1.0}) {
    const auto rank =
        static_cast<std::size_t>(std::clamp(std::ceil(q * n), 1.0, n));
    EXPECT_EQ(h.quantile(q), edge_of(sorted[rank - 1])) << q;
  }
  EXPECT_EQ(h.quantile(-1.0), edge_of(sorted.front()));
  EXPECT_EQ(h.quantile(2.0), edge_of(sorted.back()));
  EXPECT_EQ(h.quantile(std::nan("")), edge_of(sorted.front()));
}

TEST(ObsHistogram, OutOfRangeInputsLandInTheEndBins) {
  const double inf = std::numeric_limits<double>::infinity();
  Histogram h;
  for (double v : {0.0, -0.0, -5.0, -inf, std::nan("")}) h.record(v);
  for (double v : {1e11, 1e300, inf}) h.record(v);
  const std::vector<std::uint64_t> bins = h.bin_counts();
  EXPECT_EQ(bins.front(), 5u);
  EXPECT_EQ(bins.back(), 3u);
  EXPECT_EQ(h.count(), 8u);
  // None is positive and below 2^64 nanounits, so none adds to the sum.
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.quantile(0.0), Histogram::upper_edge(0));
  EXPECT_EQ(h.quantile(1.0), Histogram::upper_edge(Histogram::kBins - 1));
}

TEST(ObsHistogram, ConcurrentRecordsUnderParallelForStayExact) {
  set_enabled(false);  // a constructed histogram records regardless
  Histogram h;
  constexpr std::size_t kIters = 20000;
  parallel_for(kIters, [&](std::size_t i) {
    h.record(i % 2 == 0 ? 3.3e-6 : 0.25);
  });
  EXPECT_EQ(h.count(), kIters);
  const std::vector<std::uint64_t> bins = h.bin_counts();
  std::vector<std::uint64_t> filled;
  for (std::uint64_t b : bins) {
    if (b > 0) filled.push_back(b);
  }
  EXPECT_EQ(filled, (std::vector<std::uint64_t>{kIters / 2, kIters / 2}));
  const std::uint64_t nanos =
      kIters / 2 * (static_cast<std::uint64_t>(3.3e-6 * 1e9) + 250000000);
  EXPECT_EQ(h.sum(), static_cast<double>(nanos) / 1e9);
  EXPECT_EQ(h.quantile(0.5), edge_of(3.3e-6));
  EXPECT_EQ(h.quantile(0.51), edge_of(0.25));
}

TEST(ObsSpans, NestingDepthsOnOneThread) {
  EnabledGuard on(true);
  clear_spans();
  {
    ObsSpan outer("test.outer");
    {
      ObsSpan mid("test.mid");
      { ObsSpan inner("test.inner"); }
    }
  }
  const std::vector<SpanRecord> spans = span_snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: innermost ends first.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_STREQ(spans[1].name, "test.mid");
  EXPECT_STREQ(spans[2].name, "test.outer");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_EQ(spans[0].tid, spans[2].tid);
  // Containment: the outer span covers the inner ones.
  EXPECT_LE(spans[2].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[2].start_ns + spans[2].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
}

TEST(ObsSpans, PerThreadDepthAcrossPoolWorkers) {
  EnabledGuard on(true);
  clear_spans();
  parallel_for(64, [&](std::size_t) {
    ObsSpan outer("test.pool_outer");
    ObsSpan inner("test.pool_inner");
  });
  const std::vector<SpanRecord> spans = span_snapshot();
  std::size_t outers = 0;
  std::size_t inners = 0;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    // The pool's own instrumentation ("parallel.task") wraps each task, so
    // user spans inside a pool task sit one or two levels deep depending on
    // whether this iteration ran inline on the caller or on a worker.  The
    // invariant is relative: inner is exactly one deeper than outer.
    if (name == "test.pool_outer") {
      ++outers;
    } else if (name == "test.pool_inner") {
      ++inners;
      EXPECT_GE(s.depth, 1u);
    }
  }
  EXPECT_EQ(outers, 64u);
  EXPECT_EQ(inners, 64u);
  // Per-thread nesting: within one thread, spans sorted by start time must
  // be properly nested — each later-starting, earlier-ending span sits
  // strictly inside or strictly after any earlier span.
  for (const SpanRecord& a : spans) {
    for (const SpanRecord& b : spans) {
      if (a.tid != b.tid) continue;
      const std::uint64_t a_end = a.start_ns + a.duration_ns;
      const std::uint64_t b_end = b.start_ns + b.duration_ns;
      if (b.start_ns >= a.start_ns && b_end <= a_end) continue;  // nested
      if (b.start_ns >= a_end || a.start_ns >= b_end) continue;  // disjoint
      if (a.start_ns >= b.start_ns && a_end <= b_end) continue;  // nested
      ADD_FAILURE() << a.name << " and " << b.name
                    << " overlap without nesting on tid " << a.tid;
    }
  }
}

TEST(ObsSpans, BufferIsBoundedAndCountsDrops) {
  EnabledGuard on(true);
  clear_spans();
  set_span_capacity(16);
  for (int i = 0; i < 64; ++i) {
    ObsSpan span("test.bounded");
  }
  EXPECT_LE(span_snapshot().size(), 16u);
  EXPECT_EQ(spans_dropped(), 48u);
  set_span_capacity(1 << 16);  // restore the default for later suites
  clear_spans();
}

TEST(ObsDisabled, HotPathDoesNotAllocate) {
  set_enabled(false);
  // Registration is the cold path and may allocate; do it first.
  Counter& c = Registry::instance().counter("test.noalloc_counter");
  Gauge& g = Registry::instance().gauge("test.noalloc_gauge");
  Histogram& h = Registry::instance().histogram("test.noalloc_hist");

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    c.add();
    g.set(i);
    g.add(1);
    h.record(static_cast<double>(i));
    ObsSpan span("test.noalloc_span");
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(ObsDisabled, ScopeLifecycleDoesNotAllocate) {
  set_enabled(false);
  Counter events;
  const auto read = [&events](MetricsSnapshot& rows) {
    rows.add_counter("test.noalloc_scope.events", events.value());
  };
  { Scope warm(read); }  // the registry itself is built on first use

  // With obs off, a component's scope registers and unregisters without
  // reading or folding its rows, so components come and go allocation-free.
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    Scope scope(read);
    events.add();
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(ObsExport, MetricsCsvListsEveryInstrumentKind) {
  EnabledGuard on(true);
  Registry::instance().counter("test.csv_counter").add(3);
  Registry::instance().gauge("test.csv_gauge").set(7);
  Registry::instance().histogram("test.csv_hist").record(5.0);

  std::ostringstream out;
  write_metrics_csv(Registry::instance().snapshot(), out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,test.csv_counter,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,test.csv_gauge,value,7"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.csv_hist,count,1"), std::string::npos);
  // One row per non-empty bin, holding that bin's own count: 5.0 lies in
  // (3.981, 5.012].
  EXPECT_NE(csv.find("histogram,test.csv_hist,le_5.012,1\n"),
            std::string::npos);
  EXPECT_EQ(csv.find("histogram,test.csv_hist,le_3.981"), std::string::npos);
}

TEST(ObsExport, MetricsTableHasOneRowPerInstrument) {
  EnabledGuard on(true);
  Registry::instance().counter("test.table_counter").add();
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const AsciiTable table = metrics_table(snap);
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("test.table_counter"), std::string::npos);
}

}  // namespace
}  // namespace gppm::obs
