#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

namespace gppm::serve {
namespace {

TEST(ServeResponse, BitIdenticalComparesBitsNotValues) {
  Response a;
  a.power_watts = 0.0;
  a.time_seconds = 1.5;
  a.energy_joules = std::nan("");
  Response b = a;
  EXPECT_TRUE(bit_identical(a, b));  // identical NaNs match; == says no
  b.power_watts = -0.0;
  EXPECT_FALSE(bit_identical(a, b));  // 0.0 vs -0.0 differ; == says equal
  b = a;
  b.energy_joules = -a.energy_joules;  // a NaN with its sign bit flipped
  EXPECT_FALSE(bit_identical(a, b));
  b = a;
  b.status = ResponseStatus::Overloaded;
  EXPECT_FALSE(bit_identical(a, b));
  b = a;
  b.pair = {sim::ClockLevel::Low, sim::ClockLevel::Low};
  EXPECT_FALSE(bit_identical(a, b));
  // Per-server metadata is not part of the answer.
  b = a;
  b.error = "detail";
  b.cache_hit = true;
  b.latency = Duration::seconds(1.0);
  EXPECT_TRUE(bit_identical(a, b));
}

TEST(ServeMetrics, RequestKindNames) {
  EXPECT_EQ(to_string(RequestKind::Predict), "predict");
  EXPECT_EQ(to_string(RequestKind::Optimize), "optimize");
  EXPECT_EQ(to_string(RequestKind::Govern), "govern");
}

TEST(ServeMetrics, LatencyBinsAreMonotone) {
  // A lone latency reports its own bin's upper edge as p50: the edge grows
  // with the latency and never sits below it.
  double prev = 0.0;
  for (double s : {1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0}) {
    MetricsCollector collector;
    collector.record_request(RequestKind::Predict, s);
    const double edge = collector.snapshot().endpoints[0].p50_seconds;
    EXPECT_GE(edge, prev);
    prev = edge;
    EXPECT_LE(s, edge * 1.0000001);
  }
}

TEST(ServeMetrics, PercentilesFromKnownDistribution) {
  MetricsCollector collector;
  // 90 requests at ~10 us, 10 at ~10 ms: p50 must sit near 10 us and p99
  // near 10 ms (within one log-bin = factor 10^0.1 resolution).
  for (int i = 0; i < 90; ++i) {
    collector.record_request(RequestKind::Predict, 10e-6);
  }
  for (int i = 0; i < 10; ++i) {
    collector.record_request(RequestKind::Predict, 10e-3);
  }
  const ServerMetrics m = collector.snapshot();
  const EndpointStats& s =
      m.endpoints[static_cast<std::size_t>(RequestKind::Predict)];
  EXPECT_EQ(s.requests, 100u);
  EXPECT_NEAR(s.p50_seconds, 10e-6, 10e-6);   // within the bin
  EXPECT_NEAR(s.p99_seconds, 10e-3, 10e-3);
  EXPECT_GT(s.p95_seconds, s.p50_seconds);
  EXPECT_NEAR(s.mean_latency_seconds, 0.9 * 10e-6 + 0.1 * 10e-3, 1e-4);
}

TEST(ServeMetrics, GoldenTableAndCsvFromFixedLatencies) {
  // Latencies chosen off the bin edges; the expected renderings were
  // captured from the collector's earlier private log10 bins, so moving
  // onto obs::Histogram must not change a byte.
  MetricsCollector collector;
  for (double s : {3.3e-6, 4.4e-6, 5.3e-6, 6.5e-6, 7.4e-6, 8.3e-6, 9.2e-6,
                   1.17e-5, 1.42e-5, 2.3e-5, 3.6e-5, 5.4e-5, 2.9e-4, 3.7e-3,
                   1.9e-6, 2.6e-6, 1.7e-5, 1.9e-5, 2.7e-5, 4.2e-5, 8.6e-5,
                   1.2e-4, 6.1e-4, 1.15e-3, 0.017}) {
    collector.record_request(RequestKind::Predict, s);
  }
  for (double s : {2.2e-5, 3.4e-5, 4.5e-5, 6.9e-5, 9.3e-5, 1.9e-4, 7.2e-4,
                   0.0261, 0.43}) {
    collector.record_request(RequestKind::Optimize, s);
  }
  for (double s : {1.8e-6, 0.0023, 1.33}) {
    collector.record_request(RequestKind::Govern, s);
  }
  collector.record_batch(1);
  collector.record_batch(3);
  collector.record_batch(3);
  collector.record_rejected();
  collector.record_shed();
  collector.record_deadline_expired();
  collector.record_error_response();
  ServerMetrics m = collector.snapshot();
  m.queue_high_water = 7;
  m.cache.entries = 12;
  m.cache.capacity = 64;
  m.cache.hits = 5;
  m.cache.misses = 2;
  m.cache.evictions = 1;
  std::ostringstream table;
  m.print(table);
  std::ostringstream csv;
  m.write_csv(csv);

  EXPECT_EQ(table.str(), R"(serve metrics
+----------+----------+-----------+---------+------------+------------+
| endpoint | requests | mean us   | p50 us  | p95 us     | p99 us     |
+----------+----------+-----------+---------+------------+------------+
| predict  | 25       | 929.95    | 19.95   | 3981.07    | 19952.62   |
| optimize | 9        | 50808.11  | 100.00  | 501187.23  | 501187.23  |
| govern   | 3        | 444100.60 | 2511.89 | 1584893.19 | 1584893.19 |
+----------+----------+-----------+---------+------------+------------+
total 37 requests (1 rejected, 1 shed, 1 past deadline, 1 errors), 3 batches, mean batch 2.33, max batch 3, queue high-water 7
cache: 12/64 entries, 5 hits / 2 misses (hit rate 71.4%), 1 evictions
)");
  EXPECT_EQ(csv.str(), R"(record,key,value
requests,predict,25
mean_us,predict,929.952
p50_us,predict,19.953
p95_us,predict,3981.072
p99_us,predict,19952.623
requests,optimize,9
mean_us,optimize,50808.111
p50_us,optimize,100.000
p95_us,optimize,501187.234
p99_us,optimize,501187.234
requests,govern,3
mean_us,govern,444100.600
p50_us,govern,2511.886
p95_us,govern,1584893.192
p99_us,govern,1584893.192
summary,total_requests,37
summary,rejected_requests,1
summary,shed_requests,1
summary,deadline_expired,1
summary,error_responses,1
summary,batches,3
summary,mean_batch,2.333
summary,max_batch,3
summary,queue_high_water,7
summary,cache_hits,5
summary,cache_misses,2
summary,cache_hit_rate,0.7143
summary,cache_evictions,1
batch_size,1,1
batch_size,3,2
)");
}

TEST(ServeMetrics, EndpointsAreIndependent) {
  MetricsCollector collector;
  collector.record_request(RequestKind::Predict, 1e-6);
  collector.record_request(RequestKind::Optimize, 1e-3);
  const ServerMetrics m = collector.snapshot();
  EXPECT_EQ(m.endpoints[0].requests, 1u);
  EXPECT_EQ(m.endpoints[1].requests, 1u);
  EXPECT_EQ(m.endpoints[2].requests, 0u);
  EXPECT_EQ(m.total_requests, 2u);
  EXPECT_LT(m.endpoints[0].p50_seconds, m.endpoints[1].p50_seconds);
}

TEST(ServeMetrics, BatchDistribution) {
  MetricsCollector collector;
  collector.record_batch(1);
  collector.record_batch(1);
  collector.record_batch(4);
  collector.record_batch(kMaxTrackedBatch + 10);  // clamps into last bin
  const ServerMetrics m = collector.snapshot();
  EXPECT_EQ(m.batches, 4u);
  EXPECT_EQ(m.batch_size_counts[0], 2u);
  EXPECT_EQ(m.batch_size_counts[3], 1u);
  EXPECT_EQ(m.batch_size_counts[kMaxTrackedBatch - 1], 1u);
  EXPECT_EQ(m.max_batch_size, kMaxTrackedBatch + 10);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, (1.0 + 1 + 4 + kMaxTrackedBatch + 10) / 4);
}

TEST(ServeMetrics, TableAndCsvRenderings) {
  MetricsCollector collector;
  collector.record_request(RequestKind::Predict, 5e-6);
  collector.record_batch(2);
  collector.record_rejected();
  ServerMetrics m = collector.snapshot();
  m.cache.hits = 3;
  m.cache.misses = 1;

  std::ostringstream table;
  m.print(table);
  EXPECT_NE(table.str().find("predict"), std::string::npos);
  EXPECT_NE(table.str().find("hit rate 75.0%"), std::string::npos);
  EXPECT_NE(table.str().find("1 rejected"), std::string::npos);

  std::ostringstream csv;
  m.write_csv(csv);
  EXPECT_NE(csv.str().find("requests,predict,1"), std::string::npos);
  EXPECT_NE(csv.str().find("summary,rejected_requests,1"), std::string::npos);
  EXPECT_NE(csv.str().find("batch_size,2,1"), std::string::npos);
}

TEST(ServeMetrics, TenantCountersRoundTripThroughTableAndCsv) {
  MetricsCollector collector;
  // Tenant 0 is the shared default: recording it is a no-op by contract.
  collector.record_tenant_accepted(0);
  collector.record_tenant_shed(0);
  collector.record_tenant_cache_hit(0);
  for (int i = 0; i < 3; ++i) collector.record_tenant_accepted(7);
  collector.record_tenant_shed(7);
  collector.record_tenant_accepted(9);
  for (int i = 0; i < 2; ++i) collector.record_tenant_cache_hit(9);

  const ServerMetrics m = collector.snapshot();
  ASSERT_EQ(m.tenants.size(), 2u);  // tenant 0 never appears
  EXPECT_EQ(m.tenants[0].tenant, 7u);
  EXPECT_EQ(m.tenants[0].accepted, 3u);
  EXPECT_EQ(m.tenants[0].shed, 1u);
  EXPECT_EQ(m.tenants[0].cache_hits, 0u);
  EXPECT_EQ(m.tenants[1].tenant, 9u);
  EXPECT_EQ(m.tenants[1].accepted, 1u);
  EXPECT_EQ(m.tenants[1].cache_hits, 2u);

  std::ostringstream table;
  m.print(table);
  EXPECT_NE(table.str().find("per-tenant"), std::string::npos);

  std::ostringstream csv;
  m.write_csv(csv);
  EXPECT_NE(csv.str().find("tenant_accepted,7,3"), std::string::npos);
  EXPECT_NE(csv.str().find("tenant_shed,7,1"), std::string::npos);
  EXPECT_NE(csv.str().find("tenant_cache_hits,9,2"), std::string::npos);
}

TEST(ServeMetrics, ConcurrentTenantRecordingLosesNothing) {
  MetricsCollector collector;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.record_tenant_accepted(1 + (i % 2));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServerMetrics m = collector.snapshot();
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants[0].accepted + m.tenants[1].accepted,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ServeMetrics, ConcurrentRecordingLosesNothing) {
  MetricsCollector collector;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.record_request(RequestKind::Govern, 1e-6);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServerMetrics m = collector.snapshot();
  EXPECT_EQ(m.endpoints[static_cast<std::size_t>(RequestKind::Govern)].requests,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace gppm::serve
