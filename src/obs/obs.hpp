// gppm::obs — process-wide observability for the long-running layers.
//
// The paper's headline numbers come from unattended runs (37 benchmarks x
// frequency pairs x 50 ms power sampling feeding 114-sample regression
// fits); characterization results are only trustworthy when the measurement
// pipeline itself is instrumented.  This layer gives every subsystem one
// shared vocabulary:
//
//   * a metrics registry — named Counters, Gauges and log-binned
//     Histograms.  Registration takes a mutex once; the returned instrument
//     reference is stable for the process lifetime, and every hot-path
//     record is a single relaxed atomic op;
//   * per-instance scopes — a component that keeps its own counts
//     registers one obs::Scope for its lifetime, and snapshot() reads
//     those counts as rows, so each event is counted once.
//   * span-based tracing — RAII ObsSpan scoped timers with thread-aware
//     nesting (per-thread depth, dense thread ids) collected into a bounded
//     in-memory buffer and exportable as Chrome trace_event JSON
//     (chrome://tracing / Perfetto loadable); see obs/export.hpp.
//
// The whole layer is gated on one process-wide enable flag: with obs
// disabled (the default) every instrument call is a single relaxed atomic
// load and branch, no allocation, no lock — cheap enough to leave compiled
// into the selection and serving hot paths.
//
// Singletons are intentionally leaked: the compute pool's workers and other
// static-lifetime objects may record during process teardown, so neither
// the registry nor the span buffer is ever destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace gppm::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when the observability layer is recording.  Relaxed load — the one
/// branch every disabled-mode instrument call pays.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn recording on or off process-wide.  Instruments registered while
/// disabled stay registered; their values simply stop moving.
void set_enabled(bool on);

/// Monotonic event counter.  add() is lock-free (one relaxed fetch_add).
/// A Counter you construct counts always; one handed out by the Registry
/// counts only while obs is enabled (the same rule as Histogram).
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) {
    if (gated_ && !enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  struct RegistryOwned {};
  explicit Counter(RegistryOwned) : gated_(true) {}
  void reset() { value_.store(0, std::memory_order_relaxed); }
  const bool gated_ = false;  // true: counts only while obs is enabled
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level with a high-water mark (queue depths, busy workers).
/// set()/add() are lock-free.  Constructed: records always; handed out by
/// the Registry: records only while obs is enabled.
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) {
    if (gated_ && !enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  /// Adjust the level by `delta` (e.g. +1/-1 around a busy section).
  void add(std::int64_t delta) {
    if (gated_ && !enabled()) return;
    const std::int64_t v =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    raise_max(v);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  struct RegistryOwned {};
  explicit Gauge(RegistryOwned) : gated_(true) {}
  void raise_max(std::int64_t v) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }
  const bool gated_ = false;  // true: records only while obs is enabled
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// The one histogram type: log-spaced bins, 10 per decade, with a single
/// fixed geometry shared by every instance.  Bin i holds the values in
/// (upper_edge(i-1), upper_edge(i)], upper_edge(i) = 1e-7 * 10^((i+1)/10);
/// the 160 bins span 1e-7 .. 1e9, so seconds, microseconds, milliseconds
/// and queue depths all fit.  Bin 0 also takes 0, negatives, NaN and -inf;
/// the last bin takes everything above 1e9, +inf included.  One bin is a
/// factor 10^0.1 (~26%) wide.
///
/// record() is lock-free: a binary search over the edges and three atomic
/// ops.  A Histogram you construct records always; one handed out by the
/// Registry records only while obs is enabled, like Counter and Gauge.
class Histogram {
 public:
  static constexpr std::size_t kBins = 160;

  Histogram() = default;

  void record(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of the recorded values that are positive and below 2^64 / 1e9
  /// (accumulated in integer 1e-9 units, so concurrent records stay exact).
  double sum() const;
  /// Upper edge of the bin holding the rank-th smallest sample, rank =
  /// clamp(ceil(q * count), 1, count); +inf with no samples ("no estimate":
  /// a caller clamping into a band lands on its ceiling, not its floor).
  /// Scans only up to that bin.
  double quantile(double q) const;
  /// Per-bin counts (not cumulative), kBins entries.
  std::vector<std::uint64_t> bin_counts() const;
  static double upper_edge(std::size_t bin);

 private:
  friend class Registry;
  struct RegistryOwned {};
  explicit Histogram(RegistryOwned) : gated_(true) {}
  void reset();
  const bool gated_ = false;  // true: records only while obs is enabled
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};
  std::atomic<std::uint64_t> bins_[kBins] = {};
};

/// One registry row per instrument kind, materialized by snapshot().
struct CounterRow {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeRow {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};
struct HistogramRow {
  std::string name;
  std::vector<std::uint64_t> bin_counts;  // Histogram::kBins, per bin
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// A point-in-time copy of every registered instrument and every scope's
/// rows, one row per (kind, name), sorted by name.  A Scope's reader fills
/// one of these with the add_*() calls.
struct MetricsSnapshot {
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  void add_counter(std::string name, std::uint64_t value) {
    counters.push_back({std::move(name), value});
  }
  void add_gauge(std::string name, std::int64_t value, std::int64_t max) {
    gauges.push_back({std::move(name), value, max});
  }
  void add_gauge(std::string name, const Gauge& g) {
    add_gauge(std::move(name), g.value(), g.max());
  }
  void add_histogram(std::string name, const Histogram& h) {
    histograms.push_back({std::move(name), h.bin_counts(), h.count(), h.sum()});
  }

  /// True when any instrument whose name starts with `prefix` has recorded
  /// at least one event (counter/histogram count > 0, or gauge max > 0).
  bool has_activity(const std::string& prefix) const;
};

/// One component's counts in the registry for the component's lifetime,
/// one entry per live instance.  Registry::snapshot() calls `read` and
/// adds each row it appends into the process-wide row of the same name
/// and kind (counters, gauge levels and maxima sum; histograms merge bin
/// by bin).  With obs enabled, the destructor folds a last read into the
/// registry, so totals outlive the component; with obs off, joining and
/// leaving the registry allocate nothing.  `read` runs under the registry's
/// scope lock on the snapshotting thread: it takes only leaf locks and
/// never calls the Registry.  Make the Scope the component's last member,
/// constructed after and destroyed before what `read` reads.
class Scope {
 public:
  using Reader = std::function<void(MetricsSnapshot& rows)>;
  explicit Scope(Reader read);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  friend class Registry;
  Reader read_;
  Scope* prev_ = nullptr;  // neighbours in the registry's list of live
  Scope* next_ = nullptr;  // scopes, under its scope lock
};

/// Process-wide instrument registry.  counter()/gauge()/histogram() find or
/// create by name under a mutex; call sites cache the returned reference
/// (function-local static) so the hot path never touches the map.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registry instruments, the folded rows of scopes destroyed while obs
  /// was enabled, and every live scope's rows, summed per (kind, name).
  MetricsSnapshot snapshot() const;

  /// Zero every instrument (registrations and cached references survive)
  /// and drop the folded rows of destroyed scopes.  Live scopes report
  /// their components' own counts, which this does not touch.
  void reset_values();

 private:
  friend class Scope;
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// ---------------------------------------------------------------------------
// Span tracing.

/// One completed span, in the order spans *ended*.
struct SpanRecord {
  const char* name = "";     ///< static-lifetime literal from the call site
  std::uint32_t tid = 0;     ///< dense per-process thread index
  std::uint32_t depth = 0;   ///< nesting depth on that thread at entry
  std::uint64_t start_ns = 0;     ///< since the process trace epoch
  std::uint64_t duration_ns = 0;
};

/// RAII scoped timer.  Constructing while disabled is a no-op (no clock
/// read, no allocation); the record lands in the bounded span buffer at
/// destruction.  `name` must be a string literal or otherwise outlive the
/// buffer.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name);
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// Copy of the span buffer (completion order).
std::vector<SpanRecord> span_snapshot();

/// Spans dropped because the buffer was full.
std::uint64_t spans_dropped();

/// Empty the span buffer and reset the dropped count.
void clear_spans();

/// Resize the span buffer cap (default 65536).  Existing spans beyond the
/// new cap are kept; new spans drop while at or above it.
void set_span_capacity(std::size_t cap);

/// Nanoseconds since the process trace epoch (first use of the clock).
std::uint64_t trace_now_ns();

}  // namespace gppm::obs
