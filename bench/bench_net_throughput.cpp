// Wire throughput and latency of the gppm::net RPC layer.
//
// An in-process PredictionServer behind a net::Server on a loopback
// ephemeral port, driven by closed-loop client threads sharing one pooled
// net::Client, in two phases:
//
//   * latency — serial predict() RPCs, one in flight per connection,
//     reporting the client-observed p50/p95/p99 round trip;
//   * throughput — pipelined predict_batch() calls (32 requests per send),
//     which amortize syscalls and thread handoffs batch-fold and measure
//     sustained predictions/sec.
//
// Both phases check the protocol's core promise on every response: the
// prediction that crossed the wire is bit-identical to the one the
// in-process server returns for the same request.  Emits BENCH_net.json
// (rps, p50/p95/p99 us, protocol_errors, bit_identical) into the working
// directory.
//
// `--smoke` shrinks the request counts for the `bench`-labeled ctest
// smoke; the binary exits nonzero on any protocol error or divergent
// prediction in either mode, so the smoke doubles as a correctness gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/server.hpp"

using namespace gppm;

namespace {

constexpr sim::GpuModel kBoard = sim::GpuModel::GTX680;
constexpr std::size_t kClientThreads = 4;
constexpr std::size_t kBatch = 32;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t serial_requests = smoke ? 1500 : 8000;
  const std::size_t batched_requests = smoke ? 8000 : 64000;

  bench::print_banner(
      "net throughput",
      "Loopback RPC load against the wire-exposed prediction server; every "
      "response checked bit-identical to the in-process answer.");

  const bench::BoardModels& bm = bench::board_models(kBoard);
  serve::PredictionServer backend;
  backend.load_models(bm.power, bm.perf);

  // The request working set and its in-process ground truth.  Submitting
  // the probes first also warms the prediction cache, so the timed wire
  // runs measure RPC-layer cost, not model evaluation.
  std::vector<serve::Request> probes;
  std::vector<serve::Response> expected;
  for (std::size_t i = 0; i < bm.dataset.samples.size(); ++i) {
    serve::Request r;
    r.kind = serve::RequestKind::Predict;
    r.gpu = kBoard;
    r.counters = bm.dataset.samples[i].counters;
    probes.push_back(r);
    expected.push_back(backend.submit(probes.back()).get());
  }

  net::Server server(backend);
  net::ClientOptions copt;
  copt.port = server.port();
  copt.pool_size = kClientThreads;
  net::Client client(copt);

  std::cout << probes.size() << " cached phases, " << kClientThreads
            << " closed-loop client threads on 127.0.0.1:" << server.port()
            << "\n";

  std::atomic<std::uint64_t> divergent{0};
  std::atomic<std::uint64_t> answered{0};

  // Phase 1 — serial RPC latency.
  std::vector<std::vector<double>> latencies(kClientThreads);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = next.fetch_add(1); i < serial_requests;
             i = next.fetch_add(1)) {
          const std::size_t p = i % probes.size();
          const auto t0 = std::chrono::steady_clock::now();
          const serve::Response r = client.predict(probes[p]);
          latencies[t].push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
          answered.fetch_add(1);
          if (!serve::bit_identical(r, expected[p])) divergent.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  std::vector<double> all;
  for (const std::vector<double>& part : latencies) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());
  const double p50 = percentile(all, 0.50) * 1e6;
  const double p95 = percentile(all, 0.95) * 1e6;
  const double p99 = percentile(all, 0.99) * 1e6;

  // Phase 2 — pipelined throughput.
  double elapsed = 0.0;
  {
    std::atomic<std::size_t> next{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<serve::Request> batch(kBatch);
        std::vector<std::size_t> indices(kBatch);
        for (std::size_t base = next.fetch_add(kBatch);
             base < batched_requests; base = next.fetch_add(kBatch)) {
          const std::size_t n =
              std::min(kBatch, batched_requests - base);
          batch.resize(n);
          indices.resize(n);
          for (std::size_t j = 0; j < n; ++j) {
            indices[j] = (base + j) % probes.size();
            batch[j] = probes[indices[j]];
          }
          const std::vector<serve::Response> replies =
              client.predict_batch(batch);
          answered.fetch_add(replies.size());
          for (std::size_t j = 0; j < replies.size(); ++j) {
            if (!serve::bit_identical(replies[j], expected[indices[j]])) {
              divergent.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  }
  const double rps = static_cast<double>(batched_requests) / elapsed;

  server.stop();
  const net::ServerStats ns = server.stats();
  backend.shutdown();

  AsciiTable table({"metric", "value"});
  table.add_row({"pipelined predictions/s", format_double(rps, 0)});
  table.add_row({"serial p50 us", format_double(p50, 1)});
  table.add_row({"serial p95 us", format_double(p95, 1)});
  table.add_row({"serial p99 us", format_double(p99, 1)});
  table.add_row({"divergent", std::to_string(divergent.load())});
  table.add_row({"protocol errors", std::to_string(ns.protocol_errors)});
  table.print(std::cout);
  std::cout << ns.frames_received << " frames in / " << ns.frames_sent
            << " out, " << ns.bytes_received + ns.bytes_sent
            << " bytes on the wire (target >= 10000 predictions/s over "
            << "loopback)\n";

  const bool ok = divergent.load() == 0 && ns.protocol_errors == 0 &&
                  answered.load() == serial_requests + batched_requests;
  {
    std::ofstream json("BENCH_net.json");
    json << "{\n  \"schema\": \"gppm.bench_net.v2\",\n";
    gppm::bench::json_env_stamp(json, smoke);
    // Pre-SIMD trajectory anchor: the full-scale numbers recorded
    // immediately before the slice-by-8 CRC + zero-copy read path.
    json << "  \"baseline_pre_simd\": {\n"
         << "    \"rps\": 14527.7,\n"
         << "    \"p50_us\": 340.57,\n"
         << "    \"p95_us\": 689.25,\n"
         << "    \"p99_us\": 2117.29\n  },\n"
         << "  \"serial_requests\": " << serial_requests << ",\n"
         << "  \"batched_requests\": " << batched_requests << ",\n"
         << "  \"batch\": " << kBatch << ",\n"
         << "  \"client_threads\": " << kClientThreads << ",\n"
         << "  \"elapsed_s\": " << format_double(elapsed, 4) << ",\n"
         << "  \"rps\": " << format_double(rps, 1) << ",\n"
         << "  \"p50_us\": " << format_double(p50, 2) << ",\n"
         << "  \"p95_us\": " << format_double(p95, 2) << ",\n"
         << "  \"p99_us\": " << format_double(p99, 2) << ",\n"
         << "  \"protocol_errors\": " << ns.protocol_errors << ",\n"
         << "  \"divergent\": " << divergent.load() << ",\n"
         << "  \"bit_identical\": " << (ok ? "true" : "false") << "\n"
         << "}\n";
  }
  std::cout << "wrote BENCH_net.json\n";
  return ok ? 0 : 1;
}
