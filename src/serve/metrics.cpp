#include "serve/metrics.hpp"

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/str.hpp"

namespace gppm::serve {

std::string to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::Predict: return "predict";
    case RequestKind::Optimize: return "optimize";
    case RequestKind::Govern: return "govern";
  }
  throw Error("unknown request kind");
}

std::string to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::Ok: return "ok";
    case ResponseStatus::NoModels: return "no_models";
    case ResponseStatus::DeadlineExceeded: return "deadline_exceeded";
    case ResponseStatus::Overloaded: return "overloaded";
    case ResponseStatus::InternalError: return "internal_error";
  }
  throw Error("unknown response status");
}

void MetricsCollector::record_request(RequestKind kind,
                                      double latency_seconds) {
  latency_[static_cast<std::size_t>(kind)].record(latency_seconds);
}

void MetricsCollector::record_batch(std::size_t batch_size) {
  if (batch_size == 0) return;
  const std::size_t bin =
      batch_size > kMaxTrackedBatch ? kMaxTrackedBatch - 1 : batch_size - 1;
  batch_bins_[bin].fetch_add(1, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_items_.fetch_add(batch_size, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
  while (batch_size > seen &&
         !max_batch_.compare_exchange_weak(seen, batch_size,
                                           std::memory_order_relaxed)) {
  }
}

void MetricsCollector::record_rejected() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsCollector::record_shed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsCollector::record_deadline_expired() {
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsCollector::record_error_response() {
  error_responses_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsCollector::record_tenant_accepted(std::uint32_t tenant) {
  if (tenant == 0) return;
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  ++tenants_[tenant].accepted;
}

void MetricsCollector::record_tenant_shed(std::uint32_t tenant) {
  if (tenant == 0) return;
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  ++tenants_[tenant].shed;
}

void MetricsCollector::record_tenant_cache_hit(std::uint32_t tenant) {
  if (tenant == 0) return;
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  ++tenants_[tenant].cache_hits;
}

ServerMetrics MetricsCollector::snapshot() const {
  ServerMetrics m;
  for (std::size_t e = 0; e < kRequestKindCount; ++e) {
    const obs::Histogram& latency = latency_[e];
    EndpointStats& out = m.endpoints[e];
    out.requests = latency.count();
    if (out.requests > 0) {
      out.mean_latency_seconds =
          latency.sum() / static_cast<double>(out.requests);
      out.p50_seconds = latency.quantile(0.50);
      out.p95_seconds = latency.quantile(0.95);
      out.p99_seconds = latency.quantile(0.99);
    }
    m.total_requests += out.requests;
  }
  for (std::size_t i = 0; i < kMaxTrackedBatch; ++i) {
    m.batch_size_counts[i] = batch_bins_[i].load(std::memory_order_relaxed);
  }
  m.batches = batches_.load(std::memory_order_relaxed);
  if (m.batches > 0) {
    m.mean_batch_size =
        static_cast<double>(batch_items_.load(std::memory_order_relaxed)) /
        static_cast<double>(m.batches);
  }
  m.max_batch_size =
      static_cast<std::size_t>(max_batch_.load(std::memory_order_relaxed));
  m.rejected_requests = rejected_.load(std::memory_order_relaxed);
  m.shed_requests = shed_.load(std::memory_order_relaxed);
  m.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  m.error_responses = error_responses_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(tenant_mutex_);
    m.tenants.reserve(tenants_.size());
    for (const auto& [tenant, cells] : tenants_) {
      m.tenants.push_back(
          {tenant, cells.accepted, cells.shed, cells.cache_hits});
    }
  }
  return m;
}

AsciiTable ServerMetrics::to_table() const {
  AsciiTable table(
      {"endpoint", "requests", "mean us", "p50 us", "p95 us", "p99 us"});
  table.set_title("serve metrics");
  for (std::size_t e = 0; e < kRequestKindCount; ++e) {
    const EndpointStats& s = endpoints[e];
    table.add_row({to_string(static_cast<RequestKind>(e)),
                   std::to_string(s.requests),
                   format_double(s.mean_latency_seconds * 1e6, 2),
                   format_double(s.p50_seconds * 1e6, 2),
                   format_double(s.p95_seconds * 1e6, 2),
                   format_double(s.p99_seconds * 1e6, 2)});
  }
  return table;
}

void ServerMetrics::print(std::ostream& out) const {
  to_table().print(out);
  out << "total " << total_requests << " requests ("
      << rejected_requests << " rejected, " << shed_requests << " shed, "
      << deadline_expired << " past deadline, " << error_responses
      << " errors), " << batches
      << " batches, mean batch " << format_double(mean_batch_size, 2)
      << ", max batch " << max_batch_size << ", queue high-water "
      << queue_high_water << "\n";
  out << "cache: " << cache.entries << "/" << cache.capacity << " entries, "
      << cache.hits << " hits / " << cache.misses << " misses (hit rate "
      << format_double(cache.hit_rate() * 100.0, 1) << "%), "
      << cache.evictions << " evictions\n";
  if (!tenants.empty()) {
    AsciiTable table({"tenant", "accepted", "shed", "cache hits"});
    table.set_title("per-tenant");
    for (const TenantStats& t : tenants) {
      table.add_row({std::to_string(t.tenant), std::to_string(t.accepted),
                     std::to_string(t.shed), std::to_string(t.cache_hits)});
    }
    table.print(out);
  }
}

void ServerMetrics::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.row({"record", "key", "value"});
  for (std::size_t e = 0; e < kRequestKindCount; ++e) {
    const EndpointStats& s = endpoints[e];
    const std::string name = to_string(static_cast<RequestKind>(e));
    csv.row({"requests", name, std::to_string(s.requests)});
    csv.row({"mean_us", name, format_double(s.mean_latency_seconds * 1e6, 3)});
    csv.row({"p50_us", name, format_double(s.p50_seconds * 1e6, 3)});
    csv.row({"p95_us", name, format_double(s.p95_seconds * 1e6, 3)});
    csv.row({"p99_us", name, format_double(s.p99_seconds * 1e6, 3)});
  }
  csv.row({"summary", "total_requests", std::to_string(total_requests)});
  csv.row({"summary", "rejected_requests", std::to_string(rejected_requests)});
  csv.row({"summary", "shed_requests", std::to_string(shed_requests)});
  csv.row({"summary", "deadline_expired", std::to_string(deadline_expired)});
  csv.row({"summary", "error_responses", std::to_string(error_responses)});
  csv.row({"summary", "batches", std::to_string(batches)});
  csv.row({"summary", "mean_batch", format_double(mean_batch_size, 3)});
  csv.row({"summary", "max_batch", std::to_string(max_batch_size)});
  csv.row({"summary", "queue_high_water", std::to_string(queue_high_water)});
  csv.row({"summary", "cache_hits", std::to_string(cache.hits)});
  csv.row({"summary", "cache_misses", std::to_string(cache.misses)});
  csv.row({"summary", "cache_hit_rate", format_double(cache.hit_rate(), 4)});
  csv.row({"summary", "cache_evictions", std::to_string(cache.evictions)});
  for (std::size_t i = 0; i < kMaxTrackedBatch; ++i) {
    if (batch_size_counts[i] == 0) continue;
    csv.row({"batch_size", std::to_string(i + 1),
             std::to_string(batch_size_counts[i])});
  }
  for (const TenantStats& t : tenants) {
    const std::string id = std::to_string(t.tenant);
    csv.row({"tenant_accepted", id, std::to_string(t.accepted)});
    csv.row({"tenant_shed", id, std::to_string(t.shed)});
    csv.row({"tenant_cache_hits", id, std::to_string(t.cache_hits)});
  }
}

void MetricsCollector::add_rows(const ServerMetrics& m,
                                obs::MetricsSnapshot& rows) const {
  rows.add_counter("serve.requests", m.total_requests);
  rows.add_counter("serve.batches", m.batches);
  rows.add_counter("serve.rejected", m.rejected_requests);
  rows.add_counter("serve.shed", m.shed_requests);
  rows.add_counter("serve.deadline_expired", m.deadline_expired);
  rows.add_counter("serve.errors", m.error_responses);
  for (std::size_t e = 0; e < kRequestKindCount; ++e) {
    rows.add_histogram(
        "serve.latency_s." + to_string(static_cast<RequestKind>(e)),
        latency_[e]);
  }
  rows.add_counter("serve.cache_hits", m.cache.hits);
  rows.add_counter("serve.cache_misses", m.cache.misses);
  rows.add_counter("serve.cache_evictions", m.cache.evictions);
  // Each of these only grows (the server never clears its cache), so its
  // level is its own high-water mark.
  for (const auto& [name, level] :
       {std::pair{"serve.max_batch", m.max_batch_size},
        std::pair{"serve.queue_high_water", m.queue_high_water},
        std::pair{"serve.cache_entries", m.cache.entries}}) {
    rows.add_gauge(name, static_cast<std::int64_t>(level),
                   static_cast<std::int64_t>(level));
  }
  for (const TenantStats& t : m.tenants) {
    const std::string prefix = "serve.tenant." + std::to_string(t.tenant);
    rows.add_counter(prefix + ".accepted", t.accepted);
    rows.add_counter(prefix + ".shed", t.shed);
    rows.add_counter(prefix + ".cache_hit", t.cache_hits);
  }
}

}  // namespace gppm::serve
