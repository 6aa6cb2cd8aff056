// Serving observability: request counts, latency distributions, batch
// shapes, queue saturation, cache effectiveness.
//
// Workers record into lock-free atomic histograms (one obs::Histogram of
// latencies per endpoint, exact batch-size bins); snapshot() materializes
// a plain ServerMetrics value that renders as the standard ASCII table and
// as CSV, the same two formats every reproduction bench emits.  add_rows()
// reads the same counts as obs rows for the PredictionServer's scope.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"

namespace gppm::serve {

/// Batch sizes are tracked exactly up to this value; larger batches clamp
/// into the last bin.
inline constexpr std::size_t kMaxTrackedBatch = 64;

/// Per-endpoint snapshot statistics.
struct EndpointStats {
  std::uint64_t requests = 0;
  double mean_latency_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Per-tenant serving counters.  Only non-zero tenants are tracked — the
/// shared tenant-0 traffic stays entirely on the lock-free path and is
/// covered by the aggregate counters.
struct TenantStats {
  std::uint32_t tenant = 0;
  std::uint64_t accepted = 0;    ///< admitted past the tenant quota
  std::uint64_t shed = 0;        ///< answered Overloaded by the quota
  std::uint64_t cache_hits = 0;  ///< answered entirely from the cache
};

/// A point-in-time view of the server's counters, safe to copy around.
struct ServerMetrics {
  std::array<EndpointStats, kRequestKindCount> endpoints;
  std::uint64_t total_requests = 0;
  std::uint64_t rejected_requests = 0;  ///< submissions after shutdown/full
  std::uint64_t shed_requests = 0;      ///< answered Overloaded at admission
  std::uint64_t deadline_expired = 0;   ///< answered DeadlineExceeded
  std::uint64_t error_responses = 0;    ///< NoModels / InternalError answers
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  std::size_t max_batch_size = 0;
  std::array<std::uint64_t, kMaxTrackedBatch> batch_size_counts{};
  std::size_t queue_high_water = 0;
  CacheStats cache;
  /// Per-tenant counters, sorted by tenant id (non-zero tenants only).
  std::vector<TenantStats> tenants;

  /// Human-readable rendering (per-endpoint table + summary lines).
  AsciiTable to_table() const;
  void print(std::ostream& out) const;
  /// Machine-readable rendering: one CSV row per endpoint plus summary
  /// key/value rows, via common/csv.
  void write_csv(std::ostream& out) const;
};

/// Thread-safe recorder the worker pool writes into.
class MetricsCollector {
 public:
  void record_request(RequestKind kind, double latency_seconds);
  void record_batch(std::size_t batch_size);
  void record_rejected();
  void record_shed();
  void record_deadline_expired();
  void record_error_response();
  /// Per-tenant accounting (no-ops for tenant 0; see TenantStats).
  void record_tenant_accepted(std::uint32_t tenant);
  void record_tenant_shed(std::uint32_t tenant);
  void record_tenant_cache_hit(std::uint32_t tenant);

  /// Materialize a snapshot.  Bins are read without a global lock; counts
  /// recorded concurrently with the snapshot may land in either view.
  /// Percentiles are obs::Histogram::quantile(): the upper edge of the
  /// 10^0.1-wide bin holding the rank.
  ServerMetrics snapshot() const;

  /// Append `m` (this collector's snapshot, with the server's queue and
  /// cache filled in) as obs rows: the serve.* and serve.cache_* counters,
  /// the serve.max_batch/queue_high_water/cache_entries gauges and the
  /// serve.tenant.<id>.accepted/shed/cache_hit counters, plus one latency
  /// histogram per endpoint in seconds (serve.latency_s.<endpoint>).
  void add_rows(const ServerMetrics& m, obs::MetricsSnapshot& rows) const;

 private:
  /// Latency in seconds, one histogram per endpoint.  Records always,
  /// whether or not obs is enabled.
  std::array<obs::Histogram, kRequestKindCount> latency_;
  std::array<std::atomic<std::uint64_t>, kMaxTrackedBatch> batch_bins_{};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_items_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> error_responses_{0};

  /// Tenant cells live under a mutex: the tenant population is small and
  /// unknown up front, and tenant-0 traffic (the common case) never takes
  /// this lock.
  struct TenantCells {
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t cache_hits = 0;
  };
  mutable std::mutex tenant_mutex_;
  std::map<std::uint32_t, TenantCells> tenants_;
};

}  // namespace gppm::serve
