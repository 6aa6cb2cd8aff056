#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace gppm::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram.

namespace {

using BinEdges = std::array<double, Histogram::kBins>;

const BinEdges& bin_edges() {
  static const BinEdges edges = [] {
    BinEdges e;
    for (std::size_t i = 0; i < e.size(); ++i) {
      e[i] = 1e-7 * std::pow(10.0, static_cast<double>(i + 1) / 10.0);
    }
    return e;
  }();
  return edges;
}

/// First bin whose upper edge is >= v.  Every comparison with NaN is
/// false, so NaN lands in bin 0 with the non-positives; values past the
/// top edge clamp into the last bin.
std::size_t bin_of(double v) {
  const BinEdges& e = bin_edges();
  if (!(v > e.front())) return 0;
  return static_cast<std::size_t>(
      std::lower_bound(e.begin(), e.end() - 1, v) - e.begin());
}

}  // namespace

double Histogram::upper_edge(std::size_t bin) { return bin_edges()[bin]; }

void Histogram::record(double v) {
  if (gated_ && !enabled()) return;
  bins_[bin_of(v)].fetch_add(1, std::memory_order_relaxed);
  const double scaled = v * 1e9;
  if (scaled > 0.0 && scaled < 0x1p64) {
    sum_nanos_.fetch_add(static_cast<std::uint64_t>(scaled),
                         std::memory_order_relaxed);
  }
  // Release after the bin: a quantile() that reads this count also sees
  // every bin increment behind it, so its scan always reaches the rank.
  count_.fetch_add(1, std::memory_order_release);
}

double Histogram::sum() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1e9;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count_.load(std::memory_order_acquire);
  if (n == 0) return std::numeric_limits<double>::infinity();
  // Integer rank in [1, n]: q == 0 (or a NaN q) means the smallest sample,
  // never the empty bins below it.
  const double r = std::ceil(q * static_cast<double>(n));
  std::uint64_t rank = 1;
  if (r >= static_cast<double>(n)) {
    rank = n;
  } else if (r > 1.0) {
    rank = static_cast<std::uint64_t>(r);
  }
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < kBins; ++i) {
    seen += bins_[i].load(std::memory_order_relaxed);
    if (seen >= rank) break;
  }
  return upper_edge(i);
}

std::vector<std::uint64_t> Histogram::bin_counts() const {
  std::vector<std::uint64_t> out(kBins);
  for (std::size_t i = 0; i < kBins; ++i) {
    out[i] = bins_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry.

namespace {

/// Sort each kind's rows by name and sum the rows of one name into one.
void fold(MetricsSnapshot& s) {
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  const auto fold_kind = [&](auto& rows, auto add) {
    std::stable_sort(rows.begin(), rows.end(), by_name);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (kept > 0 && rows[kept - 1].name == rows[i].name) {
        add(rows[kept - 1], rows[i]);
      } else {
        if (kept != i) rows[kept] = std::move(rows[i]);
        ++kept;
      }
    }
    rows.resize(kept);
  };
  fold_kind(s.counters, [](CounterRow& a, const CounterRow& b) {
    a.value += b.value;
  });
  fold_kind(s.gauges, [](GaugeRow& a, const GaugeRow& b) {
    a.value += b.value;
    a.max += b.max;
  });
  fold_kind(s.histograms, [](HistogramRow& a, const HistogramRow& b) {
    for (std::size_t i = 0; i < a.bin_counts.size(); ++i) {
      a.bin_counts[i] += b.bin_counts[i];
    }
    a.count += b.count;
    a.sum += b.sum;
  });
}

}  // namespace

struct Registry::Impl {
  // Lock order: scope_mu before mu.  snapshot() holds scope_mu while it
  // calls the scopes' readers, so a Scope's destructor waits for any
  // snapshot still reading its component.
  mutable std::mutex scope_mu;
  Scope* first = nullptr;  // live scopes in registration order, linked
  Scope* last = nullptr;   // through Scope::next_: no allocation
  MetricsSnapshot retired;  // final rows of destroyed scopes, folded

  mutable std::mutex mu;
  // Node-based maps: instrument addresses stay stable across registrations,
  // so call sites can cache references forever.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::instance() {
  // Leaked on purpose (see header): pool workers may record at teardown.
  static Registry* r = new Registry();
  return *r;
}

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot.reset(new Counter(Counter::RegistryOwned{}));
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.gauges[name];
  if (!slot) slot.reset(new Gauge(Gauge::RegistryOwned{}));
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.histograms[name];
  if (!slot) slot.reset(new Histogram(Histogram::RegistryOwned{}));
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> scope_lock(im.scope_mu);
  MetricsSnapshot rows = im.retired;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    for (const auto& [name, c] : im.counters) {
      rows.add_counter(name, c->value());
    }
    for (const auto& [name, g] : im.gauges) rows.add_gauge(name, *g);
    for (const auto& [name, h] : im.histograms) rows.add_histogram(name, *h);
  }
  for (const Scope* s = im.first; s != nullptr; s = s->next_) s->read_(rows);
  fold(rows);
  return rows;
}

void Registry::reset_values() {
  Impl& im = impl();
  std::lock_guard<std::mutex> scope_lock(im.scope_mu);
  im.retired = MetricsSnapshot{};
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

Scope::Scope(Reader read) : read_(std::move(read)) {
  Registry::Impl& im = Registry::instance().impl();
  std::lock_guard<std::mutex> lock(im.scope_mu);
  prev_ = std::exchange(im.last, this);
  (prev_ != nullptr ? prev_->next_ : im.first) = this;
}

Scope::~Scope() {
  Registry::Impl& im = Registry::instance().impl();
  std::lock_guard<std::mutex> lock(im.scope_mu);
  (prev_ != nullptr ? prev_->next_ : im.first) = next_;
  (next_ != nullptr ? next_->prev_ : im.last) = prev_;
  if (!enabled()) return;  // registry totals follow the enable flag
  read_(im.retired);
  fold(im.retired);
}

bool MetricsSnapshot::has_activity(const std::string& prefix) const {
  const auto matches = [&](const std::string& name) {
    return name.size() >= prefix.size() &&
           name.compare(0, prefix.size(), prefix) == 0;
  };
  for (const CounterRow& c : counters) {
    if (matches(c.name) && c.value > 0) return true;
  }
  for (const GaugeRow& g : gauges) {
    if (matches(g.name) && g.max > 0) return true;
  }
  for (const HistogramRow& h : histograms) {
    if (matches(h.name) && h.count > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Spans.

namespace {

struct SpanBuffer {
  std::mutex mu;
  std::vector<SpanRecord> spans;
  std::size_t capacity = 1 << 16;
  std::atomic<std::uint64_t> dropped{0};
};

SpanBuffer& span_buffer() {
  static SpanBuffer* b = new SpanBuffer();  // leaked, like the registry
  return *b;
}

std::uint64_t trace_epoch_ns() {
  static const std::uint64_t epoch = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return epoch;
}

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

thread_local std::uint32_t tl_span_depth = 0;

}  // namespace

std::uint64_t trace_now_ns() {
  // Resolve the epoch before reading the clock: the first-ever call
  // initializes it, and reading `now` first would put it before the epoch
  // (a negative difference wrapped to ~2^64).
  const std::uint64_t epoch = trace_epoch_ns();
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch;
}

ObsSpan::ObsSpan(const char* name) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  depth_ = tl_span_depth++;
  start_ns_ = trace_now_ns();
}

ObsSpan::~ObsSpan() {
  if (!active_) return;
  --tl_span_depth;
  SpanRecord rec;
  rec.name = name_;
  rec.tid = this_thread_index();
  rec.depth = depth_;
  rec.start_ns = start_ns_;
  rec.duration_ns = trace_now_ns() - start_ns_;
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.spans.size() >= buf.capacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.spans.push_back(rec);
}

std::vector<SpanRecord> span_snapshot() {
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  return buf.spans;
}

std::uint64_t spans_dropped() {
  return span_buffer().dropped.load(std::memory_order_relaxed);
}

void clear_spans() {
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.clear();
  buf.dropped.store(0, std::memory_order_relaxed);
}

void set_span_capacity(std::size_t cap) {
  SpanBuffer& buf = span_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.capacity = cap;
}

}  // namespace gppm::obs
