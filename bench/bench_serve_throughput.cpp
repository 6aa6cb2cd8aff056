// Serving throughput and latency of the gppm::serve engine.
//
// Replays the synthetic 37-benchmark-suite trace against PredictionServer
// in two load-generator modes:
//   * closed loop — C clients, one request in flight each, measuring
//     sustained requests/sec while the worker count scales 1 -> 2 -> 4,
//     on both the warm-cache trace (phases repeat, Zipf popularity) and a
//     jittered all-miss trace (every request a fresh phase);
//   * open loop — paced arrivals at a fraction of the measured closed-loop
//     capacity, reporting the latency distribution under non-saturating
//     load and the shed-request count under overload.
//
// The scaling headline (4-worker vs 1-worker throughput) depends on the
// machine: the worker pool is CPU-bound, so a box with fewer than ~5
// hardware threads (4 workers + clients) caps the achievable ratio at
// roughly its core count.  The bench prints hardware_concurrency next to
// the ratio so the number reads honestly.
//
// Emits BENCH_serve.json (the closed-loop rows and the open-loop point)
// into the working directory; exits nonzero if any closed-loop request
// failed.
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

using namespace gppm;

namespace {

constexpr sim::GpuModel kBoard = sim::GpuModel::GTX680;
constexpr std::size_t kClients = 4;
constexpr std::size_t kWarmRequests = 30000;
constexpr std::size_t kColdRequests = 8000;

struct LoadResult {
  double requests_per_sec = 0.0;
  serve::ServerMetrics metrics;
};

/// Open loop: one producer paces arrivals at `rate_per_sec`, shedding
/// (try_submit) when the queue is full.
LoadResult open_loop(serve::PredictionServer& server,
                     const std::vector<serve::Request>& trace,
                     double rate_per_sec) {
  std::vector<std::future<serve::Response>> inflight;
  inflight.reserve(trace.size());
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> interval(1.0 / rate_per_sec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::this_thread::sleep_until(start + interval * static_cast<double>(i));
    auto future = server.try_submit(trace[i]);
    if (future) inflight.push_back(std::move(*future));
  }
  for (auto& f : inflight) f.get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  LoadResult result;
  result.requests_per_sec = static_cast<double>(inflight.size()) / elapsed;
  result.metrics = server.metrics();
  return result;
}

}  // namespace

int main() {
  bench::print_banner(
      "Serving throughput",
      "Closed- and open-loop load against the concurrent prediction server "
      "(synthetic suite trace, Zipf phase popularity).");

  const bench::BoardModels& bm = bench::board_models(kBoard);
  const core::UnifiedModel power_model = core::UnifiedModel::fit(
      bm.dataset, core::TargetKind::Power, core::extended_power_options());
  const core::UnifiedModel perf_model =
      core::UnifiedModel::fit(bm.dataset, core::TargetKind::ExecTime);
  const serve::PhaseCorpus corpus = serve::build_phase_corpus(kBoard);

  serve::TraceOptions warm_opt;
  warm_opt.request_count = kWarmRequests;
  const std::vector<serve::Request> warm_trace =
      serve::synthetic_trace(corpus, warm_opt);

  serve::TraceOptions cold_opt;
  cold_opt.request_count = kColdRequests;
  cold_opt.counter_jitter = 1.0;  // every request a fresh phase: all misses
  const std::vector<serve::Request> cold_trace =
      serve::synthetic_trace(corpus, cold_opt);

  std::cout << corpus.counters.size() << " phases, hardware_concurrency "
            << std::thread::hardware_concurrency() << ", " << kClients
            << " closed-loop clients\n";

  const std::vector<std::size_t> worker_counts = {1, 2, 4};
  AsciiTable table({"trace", "workers", "req/s", "speedup vs 1w",
                    "cache hit %", "mean batch", "p95 us", "queue hw"});
  table.set_title("closed-loop scaling");

  CsvWriter csv(std::cout);
  struct Row {
    std::string trace;
    std::size_t requests;
    std::size_t workers;
    LoadResult r;
    double speedup;
    double p95_seconds;
  };
  std::vector<Row> rows;

  double warm_1w = 0.0, warm_4w = 0.0, warm_4w_hit_rate = 0.0;
  std::uint64_t failed = 0;
  for (const char* trace_name : {"warm", "cold"}) {
    const bool warm = std::string(trace_name) == "warm";
    const std::vector<serve::Request>& trace = warm ? warm_trace : cold_trace;
    double base = 0.0;
    for (std::size_t workers : worker_counts) {
      serve::ServerOptions opt;
      opt.worker_threads = workers;
      serve::PredictionServer server(opt);
      server.load_models(power_model, perf_model);
      // Closed loop: each client keeps exactly one request in flight.
      const serve::ReplayResult replayed = serve::replay(
          trace,
          [&server](const serve::Request& r) {
            return server.submit(r).get();
          },
          {kClients});
      failed += replayed.failed;
      const LoadResult r{replayed.rps(), server.metrics()};
      if (workers == 1) base = r.requests_per_sec;
      const double speedup = r.requests_per_sec / base;
      if (warm && workers == 1) warm_1w = r.requests_per_sec;
      if (warm && workers == 4) {
        warm_4w = r.requests_per_sec;
        warm_4w_hit_rate = r.metrics.cache.hit_rate();
      }
      // The optimize/govern endpoints dominate p95; report the worst one.
      double p95 = 0.0;
      for (const serve::EndpointStats& s : r.metrics.endpoints) {
        if (s.p95_seconds > p95) p95 = s.p95_seconds;
      }
      table.add_row({trace_name, std::to_string(workers),
                     format_double(r.requests_per_sec, 0),
                     format_double(speedup, 2),
                     format_double(r.metrics.cache.hit_rate() * 100.0, 1),
                     format_double(r.metrics.mean_batch_size, 2),
                     format_double(p95 * 1e6, 1),
                     std::to_string(r.metrics.queue_high_water)});
      rows.push_back({trace_name, trace.size(), workers, r, speedup, p95});
    }
  }
  table.print(std::cout);

  std::cout << "4-worker vs 1-worker (warm trace): "
            << format_double(warm_4w / warm_1w, 2) << "x at "
            << format_double(warm_4w_hit_rate * 100.0, 1)
            << "% cache hit rate (target >= 2.5x on a >= 4-core machine; "
            << "this machine offers " << std::thread::hardware_concurrency()
            << " hardware threads)\n\n";

  // Open loop at ~60% of the measured 4-worker capacity: the latency
  // distribution a non-saturated server delivers.
  const double open_rate = 0.6 * warm_4w;
  LoadResult open;
  {
    serve::ServerOptions opt;
    opt.worker_threads = 4;
    serve::PredictionServer server(opt);
    server.load_models(power_model, perf_model);
    open = open_loop(server, warm_trace, open_rate);
    std::cout << "open loop at " << format_double(open_rate, 0)
              << " req/s target (" << format_double(open.requests_per_sec, 0)
              << " served, " << open.metrics.rejected_requests << " shed):\n";
    open.metrics.print(std::cout);
  }

  bench::begin_csv("serve_throughput");
  csv.row({"trace", "workers", "req_per_sec", "speedup_vs_1w",
           "cache_hit_rate", "mean_batch", "queue_high_water"});
  for (const Row& row : rows) {
    csv.row({row.trace, std::to_string(row.workers),
             format_double(row.r.requests_per_sec, 1),
             format_double(row.speedup, 3),
             format_double(row.r.metrics.cache.hit_rate(), 4),
             format_double(row.r.metrics.mean_batch_size, 3),
             std::to_string(row.r.metrics.queue_high_water)});
  }
  bench::end_csv();

  {
    std::ofstream json("BENCH_serve.json");
    json << "{\n  \"schema\": \"gppm.bench_serve.v1\",\n";
    bench::json_env_stamp(json, /*smoke=*/false);
    json << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"closed_loop\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      json << "    {\"trace\": \"" << row.trace
           << "\", \"requests\": " << row.requests
           << ", \"workers\": " << row.workers
           << ", \"rps\": " << format_double(row.r.requests_per_sec, 1)
           << ", \"speedup_vs_1w\": " << format_double(row.speedup, 3)
           << ", \"cache_hit_rate\": "
           << format_double(row.r.metrics.cache.hit_rate(), 4)
           << ", \"mean_batch\": "
           << format_double(row.r.metrics.mean_batch_size, 3)
           << ", \"p95_us\": " << format_double(row.p95_seconds * 1e6, 2)
           << ", \"queue_high_water\": " << row.r.metrics.queue_high_water
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"warm_speedup_4w_vs_1w\": "
         << format_double(warm_4w / warm_1w, 3) << ",\n"
         << "  \"open_loop\": {\"target_rps\": " << format_double(open_rate, 1)
         << ", \"served_rps\": " << format_double(open.requests_per_sec, 1)
         << ", \"shed\": " << open.metrics.rejected_requests << "},\n"
         << "  \"failed\": " << failed << ",\n"
         << "  \"pass\": " << (failed == 0 ? "true" : "false") << "\n}\n";
  }
  std::cout << "wrote BENCH_serve.json\n";
  if (failed != 0) {
    std::cerr << "FAIL: " << failed << " closed-loop requests threw\n";
    return 1;
  }
  return 0;
}
