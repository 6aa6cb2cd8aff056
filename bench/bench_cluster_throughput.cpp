// Scaling, tail-latency and chaos-correctness characterization of the
// gppm::cluster routing layer.  Five phases, one JSON artifact:
//
//   * scaling — closed-loop saturation against shaped fleets of 1, 2 and
//     4 backends.  Each node carries the same service envelope (1 ms
//     service floor, concurrency 4), so per-node capacity — not the one
//     host core — is the binding constraint and the 1→2→4 curve measures
//     what the router adds and what it scales; the gate demands >= 2.5x
//     aggregate throughput at 4 backends vs 1.
//   * hedging — the same non-saturating load against a 3-node fleet where
//     a slice of requests stalls 20 ms (the slow-shard pathology), with
//     hedged requests off then on.  The gate demands a lower p999 with
//     hedging: slow primaries are raced against their replica instead of
//     being waited out.
//   * chaos — a wire fleet (each node behind its own loopback gppm::net
//     server) with every client socket routed through the net.* fault
//     sites while backends are killed and restarted round-robin under
//     load.  Every successful response must be bit-identical to a
//     single untouched reference server's answer: refusals are visible as
//     typed statuses, wrong answers are a failed bench.
//   * reconfig — rolling drain/restart of every backend (the zero-downtime
//     upgrade path: drain -> restart -> rejoin, one node at a time) under
//     live traffic.  The gate is absolute: zero failed answers and zero
//     non-bit-identical answers while the whole fleet is cycled at least
//     once.
//   * overload — open-loop arrivals at rates below, near and past the
//     shaped fleet's measured capacity, with AIMD admission control and a
//     50 ms request deadline.  The gate demands that accepted requests
//     keep their p99 within the deadline at every rate while the excess
//     is shed as typed Overloaded answers (graceful degradation, not
//     queue collapse).
//
// Emits BENCH_cluster.json into the working directory; exits nonzero if
// any gate fails.  `--smoke` shrinks the request counts for the
// bench/cluster-labeled ctest smoke.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/fleet.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

using namespace gppm;

namespace {

constexpr sim::GpuModel kBoard = sim::GpuModel::GTX680;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

struct RunResult {
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t non_ok = 0;
  std::uint64_t divergent = 0;
  cluster::RouterStats router;
};

/// Closed-loop drive of a fleet's router by `workers` threads.  When
/// `truth` is non-null every successful answer is checked bit-identical
/// against it.
RunResult drive(cluster::LocalFleet& fleet,
                const std::vector<serve::Request>& trace, std::size_t workers,
                const std::vector<serve::Response>* truth = nullptr) {
  std::mutex merge_mutex;
  std::vector<double> latencies;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> non_ok{0};
  std::atomic<std::uint64_t> divergent{0};
  std::atomic<std::size_t> next{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::vector<double> local;
      for (std::size_t i = next.fetch_add(1); i < trace.size();
           i = next.fetch_add(1)) {
        const auto t0 = std::chrono::steady_clock::now();
        const serve::Response r = fleet.router().predict(trace[i]);
        local.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
        if (r.ok()) {
          ok.fetch_add(1);
          if (truth != nullptr && !serve::bit_identical(r, (*truth)[i])) {
            divergent.fetch_add(1);
          }
        } else {
          non_ok.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::sort(latencies.begin(), latencies.end());
  RunResult r;
  r.rps = static_cast<double>(latencies.size()) / elapsed;
  r.p50_us = percentile(latencies, 0.50) * 1e6;
  r.p99_us = percentile(latencies, 0.99) * 1e6;
  r.p999_us = percentile(latencies, 0.999) * 1e6;
  r.ok = ok.load();
  r.non_ok = non_ok.load();
  r.divergent = divergent.load();
  r.router = fleet.router().stats();
  return r;
}

/// One rate point of the overload sweep.
struct OverloadPoint {
  double target_rps = 0.0;
  double offered_rps = 0.0;  ///< what the open loop actually offered
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;   ///< typed Overloaded answers
  std::uint64_t other = 0;  ///< other typed refusals (deadline etc.)
  double ok_p99_ms = 0.0;   ///< p99 latency of *accepted* requests
};

/// Open-loop drive: request i is launched at start + i/rate regardless of
/// completions (workers that fall behind fire immediately), so offered
/// load is set by `rate`, not by service capacity — the shape that makes
/// overload visible.
OverloadPoint open_loop_drive(cluster::LocalFleet& fleet,
                              const std::vector<serve::Request>& trace,
                              double rate, Duration deadline,
                              std::size_t workers) {
  std::mutex merge_mutex;
  std::vector<double> ok_latencies;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> other{0};
  std::atomic<std::size_t> next{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::vector<double> local;
      for (std::size_t i = next.fetch_add(1); i < trace.size();
           i = next.fetch_add(1)) {
        const auto arrival =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
        std::this_thread::sleep_until(arrival);
        serve::Request request = trace[i];
        request.deadline = deadline;
        const auto t0 = std::chrono::steady_clock::now();
        const serve::Response r = fleet.router().predict(request);
        const double took = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (r.ok()) {
          ok.fetch_add(1);
          local.push_back(took);
        } else if (r.status == serve::ResponseStatus::Overloaded) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      ok_latencies.insert(ok_latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::sort(ok_latencies.begin(), ok_latencies.end());
  OverloadPoint point;
  point.target_rps = rate;
  point.offered_rps = static_cast<double>(trace.size()) / elapsed;
  point.ok = ok.load();
  point.shed = shed.load();
  point.other = other.load();
  point.ok_p99_ms = percentile(ok_latencies, 0.99) * 1e3;
  return point;
}

std::vector<serve::Request> make_trace(const serve::PhaseCorpus& corpus,
                                       std::size_t count, double jitter) {
  serve::TraceOptions topt;
  topt.request_count = count;
  topt.seed = bench::kCampaignSeed;
  // Govern is stateful (hysteresis), so a replicated fleet cannot promise
  // bit-identity for it; cluster traffic sticks to the pure endpoints.
  topt.govern_fraction = 0.0;
  // Full jitter makes every request a fresh phase, i.e. a fresh routing
  // key: placement spreads uniformly instead of following the Zipf head,
  // which is what a scaling measurement wants.
  topt.counter_jitter = jitter;
  return serve::synthetic_trace(corpus, topt);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t scaling_requests = smoke ? 1500 : 6000;
  const std::size_t hedge_requests = smoke ? 2500 : 5000;
  const std::size_t chaos_requests = smoke ? 1200 : 2500;

  bench::print_banner(
      "cluster throughput",
      "Sharded/replicated router over shaped backend fleets: 1->2->4 "
      "scaling, hedged-request tail control, chaos bit-identity gate.");

  const bench::BoardModels& bm = bench::board_models(kBoard);
  const serve::PhaseCorpus corpus = serve::build_phase_corpus(kBoard);

  // ---- Phase 1: 1 -> 2 -> 4 scaling under a per-node service envelope.
  const std::vector<serve::Request> scaling_trace =
      make_trace(corpus, scaling_requests, 1.0);
  const std::size_t fleet_sizes[] = {1, 2, 4};
  std::vector<RunResult> scaling;
  for (const std::size_t n : fleet_sizes) {
    cluster::FleetOptions fopt;
    fopt.backends = n;
    fopt.shaped = true;
    fopt.shaping.min_service = Duration::milliseconds(1.0);
    fopt.shaping.concurrency = 4;
    cluster::RouterOptions ropt;
    ropt.hedging = false;  // capacity, not tail control, is under test
    cluster::LocalFleet fleet(bm.power, bm.perf, fopt, ropt);
    scaling.push_back(drive(fleet, scaling_trace, 32));
    fleet.stop();
    std::cout << n << " backends: " << format_double(scaling.back().rps, 0)
              << " req/s, p50 " << format_double(scaling.back().p50_us, 0)
              << " us, p999 " << format_double(scaling.back().p999_us, 0)
              << " us\n";
  }
  // Smoke runs measure ~0.2 s per fleet size, which on a busy host puts
  // several hundred req/s of noise on the ratio; the full bench keeps the
  // tight gate, the smoke gate only has to catch scaling being broken.
  const double scaling_gate = smoke ? 2.0 : 2.5;
  const double speedup_4x = scaling[2].rps / scaling[0].rps;
  const bool scaling_ok = speedup_4x >= scaling_gate;
  std::cout << "4-backend speedup vs 1: " << format_double(speedup_4x, 2)
            << "x (gate >= " << format_double(scaling_gate, 1) << "x)\n";

  // ---- Phase 2: p999 with one-in-150 requests stalling 20 ms, hedging
  // off vs on, under non-saturating load.
  const std::vector<serve::Request> hedge_trace =
      make_trace(corpus, hedge_requests, 1.0);
  RunResult unhedged, hedged;
  for (const bool hedging : {false, true}) {
    cluster::FleetOptions fopt;
    fopt.backends = 3;
    fopt.shaped = true;
    fopt.shaping.min_service = Duration::milliseconds(1.0);
    fopt.shaping.concurrency = 4;
    fopt.shaping.lag_every = 150;
    fopt.shaping.lag = Duration::milliseconds(20.0);
    cluster::RouterOptions ropt;
    ropt.hedging = hedging;
    cluster::LocalFleet fleet(bm.power, bm.perf, fopt, ropt);
    (hedging ? hedged : unhedged) = drive(fleet, hedge_trace, 8);
    fleet.stop();
  }
  const bool hedging_ok = hedged.p999_us < unhedged.p999_us;
  std::cout << "p999 unhedged " << format_double(unhedged.p999_us, 0)
            << " us -> hedged " << format_double(hedged.p999_us, 0) << " us ("
            << hedged.router.hedges_fired << " hedges, "
            << hedged.router.hedge_wins << " wins; gate: lower)\n";

  // ---- Phase 3: chaos.  Wire fleet, faulted sockets, backends dying and
  // recovering under load; every successful answer must match the
  // untouched reference server bit for bit.
  const std::vector<serve::Request> chaos_trace =
      make_trace(corpus, chaos_requests, 0.0);
  std::vector<serve::Response> truth(chaos_trace.size());
  {
    serve::PredictionServer reference;
    reference.load_models(bm.power, bm.perf);
    for (std::size_t i = 0; i < chaos_trace.size(); ++i) {
      truth[i] = reference.submit(chaos_trace[i]).get();
    }
  }

  fault::FaultInjector injector(fault::FaultPlan::net_profile(),
                                bench::kCampaignSeed);
  RunResult chaos;
  std::uint64_t kills = 0;
  {
    cluster::FleetOptions fopt;
    fopt.backends = 3;
    fopt.wire = true;
    fopt.injector = &injector;
    fopt.client.retry.max_attempts = 8;
    fopt.client.retry.initial_backoff = Duration::milliseconds(1.0);
    fopt.client.retry.max_backoff = Duration::milliseconds(50.0);
    cluster::LocalFleet fleet(bm.power, bm.perf, fopt, {});

    std::atomic<bool> running{true};
    std::thread reaper([&] {
      std::size_t victim = 0;
      while (running.load()) {
        const std::size_t k = victim++ % fleet.size();
        fleet.kill(k);
        ++kills;
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        fleet.restart(k);
        for (int tick = 0; tick < 6 && running.load(); ++tick) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
    chaos = drive(fleet, chaos_trace, 4, &truth);
    running.store(false);
    reaper.join();
    fleet.stop();
  }
  const bool chaos_ok = chaos.divergent == 0 && chaos.ok > 0;
  std::cout << "chaos: " << chaos.ok << " ok / " << chaos.non_ok
            << " refused, " << chaos.divergent << " divergent, " << kills
            << " backend kills, " << injector.total_fires() << "/"
            << injector.total_checks() << " site checks fired\n";

  // ---- Phase 4: reconfig.  Rolling drain/restart of every backend under
  // live traffic.  Planned removals must be invisible: zero refusals, zero
  // divergence, at least one full sweep of the fleet.
  const std::size_t reconfig_requests = smoke ? 3000 : 12000;
  const std::vector<serve::Request> reconfig_trace =
      make_trace(corpus, reconfig_requests, 0.0);
  std::vector<serve::Response> reconfig_truth(reconfig_trace.size());
  {
    serve::PredictionServer reference;
    reference.load_models(bm.power, bm.perf);
    for (std::size_t i = 0; i < reconfig_trace.size(); ++i) {
      reconfig_truth[i] = reference.submit(reconfig_trace[i]).get();
    }
  }

  RunResult reconfig;
  std::uint64_t rolling_sweeps = 0;
  std::uint64_t rolling_drains = 0;
  bool rolling_zero_loss = true;
  std::size_t reconfig_fleet_size = 0;
  {
    cluster::FleetOptions fopt;
    fopt.backends = 3;
    cluster::RouterOptions ropt;
    ropt.replicas = 2;
    ropt.health_interval = Duration::milliseconds(5.0);
    ropt.breaker.cooldown = std::chrono::milliseconds(20);
    cluster::LocalFleet fleet(bm.power, bm.perf, fopt, ropt);
    reconfig_fleet_size = fleet.size();

    std::atomic<bool> running{true};
    std::thread roller([&] {
      // Keep cycling the fleet until the load finishes, but always finish
      // at least one full sweep so every backend was drained under fire.
      do {
        const cluster::RollingRestartReport report = fleet.rolling_restart();
        ++rolling_sweeps;
        rolling_drains += report.drains.size();
        rolling_zero_loss = rolling_zero_loss && report.zero_loss;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } while (running.load());
    });
    reconfig = drive(fleet, reconfig_trace, 8, &reconfig_truth);
    running.store(false);
    roller.join();
    fleet.stop();
  }
  const bool reconfig_ok = reconfig.non_ok == 0 && reconfig.divergent == 0 &&
                           rolling_zero_loss &&
                           rolling_drains >= reconfig_fleet_size;
  std::cout << "reconfig: " << rolling_sweeps << " rolling sweeps ("
            << rolling_drains << " drains) under " << reconfig.ok
            << " requests: " << reconfig.non_ok << " refused, "
            << reconfig.divergent
            << " divergent (gate: 0/0, zero-loss, full sweep)\n";

  // ---- Phase 5: overload.  Measure the shaped fleet's closed-loop
  // capacity, then offer open-loop load below, near and past it with AIMD
  // admission and a 50 ms deadline.  Accepted work must stay within the
  // deadline at every rate; the excess must come back as typed Overloaded.
  const Duration overload_deadline = Duration::milliseconds(50.0);
  const std::size_t overload_requests = smoke ? 1500 : 4000;
  const std::vector<serve::Request> overload_trace =
      make_trace(corpus, overload_requests, 1.0);

  cluster::FleetOptions overload_fopt;
  overload_fopt.backends = 2;
  overload_fopt.shaped = true;
  overload_fopt.shaping.min_service = Duration::milliseconds(1.0);
  overload_fopt.shaping.concurrency = 4;

  double capacity_rps = 0.0;
  {
    // Calibration: closed-loop saturation, admission off.
    cluster::RouterOptions ropt;
    ropt.hedging = false;
    cluster::LocalFleet fleet(bm.power, bm.perf, overload_fopt, ropt);
    const std::vector<serve::Request> calibration(
        overload_trace.begin(),
        overload_trace.begin() +
            static_cast<std::ptrdiff_t>(
                std::min<std::size_t>(overload_trace.size(), 1500)));
    capacity_rps = drive(fleet, calibration, 16).rps;
    fleet.stop();
  }

  const double rate_factors[] = {0.5, 0.8, 1.6};
  std::vector<OverloadPoint> overload;
  std::uint64_t overload_admission_shed = 0;
  for (const double factor : rate_factors) {
    cluster::RouterOptions ropt;
    ropt.hedging = false;
    ropt.admission_control = true;
    cluster::LocalFleet fleet(bm.power, bm.perf, overload_fopt, ropt);
    overload.push_back(open_loop_drive(fleet, overload_trace,
                                       capacity_rps * factor,
                                       overload_deadline, 48));
    overload_admission_shed += fleet.router().stats().admission_shed;
    fleet.stop();
    const OverloadPoint& point = overload.back();
    std::cout << "overload " << format_double(factor, 1) << "x capacity ("
              << format_double(point.target_rps, 0) << " req/s): " << point.ok
              << " ok, " << point.shed << " shed, " << point.other
              << " other, ok-p99 " << format_double(point.ok_p99_ms, 1)
              << " ms\n";
  }
  bool overload_p99_ok = true;
  for (const OverloadPoint& point : overload) {
    overload_p99_ok = overload_p99_ok && point.ok > 0 &&
                      point.ok_p99_ms <=
                          overload_deadline.as_seconds() * 1e3;
  }
  const bool overload_shed_ok = overload.back().shed > 0;
  const bool overload_ok = overload_p99_ok && overload_shed_ok;
  std::cout << "overload gate: accepted p99 <= "
            << format_double(overload_deadline.as_seconds() * 1e3, 0)
            << " ms at every rate "
            << (overload_p99_ok ? "(held)" : "(BLOWN)") << ", "
            << overload.back().shed
            << " typed Overloaded sheds past saturation\n";

  AsciiTable table({"metric", "value"});
  table.add_row({"rps 1 backend", format_double(scaling[0].rps, 0)});
  table.add_row({"rps 2 backends", format_double(scaling[1].rps, 0)});
  table.add_row({"rps 4 backends", format_double(scaling[2].rps, 0)});
  table.add_row({"speedup 4 vs 1", format_double(speedup_4x, 2)});
  table.add_row({"p999 us unhedged", format_double(unhedged.p999_us, 1)});
  table.add_row({"p999 us hedged", format_double(hedged.p999_us, 1)});
  table.add_row({"hedges fired", std::to_string(hedged.router.hedges_fired)});
  table.add_row({"chaos divergent", std::to_string(chaos.divergent)});
  table.add_row({"rolling drains", std::to_string(rolling_drains)});
  table.add_row({"reconfig refused", std::to_string(reconfig.non_ok)});
  table.add_row({"reconfig divergent", std::to_string(reconfig.divergent)});
  table.add_row({"capacity req/s", format_double(capacity_rps, 0)});
  table.add_row(
      {"overload p99 ms (1.6x)", format_double(overload.back().ok_p99_ms, 1)});
  table.add_row({"overload sheds (1.6x)", std::to_string(overload.back().shed)});
  table.print(std::cout);

  const bool ok =
      scaling_ok && hedging_ok && chaos_ok && reconfig_ok && overload_ok;
  {
    std::ofstream json("BENCH_cluster.json");
    json << "{\n  \"schema\": \"gppm.bench_cluster.v2\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      json << "    {\"backends\": " << fleet_sizes[i]
           << ", \"rps\": " << format_double(scaling[i].rps, 1)
           << ", \"p50_us\": " << format_double(scaling[i].p50_us, 2)
           << ", \"p99_us\": " << format_double(scaling[i].p99_us, 2)
           << ", \"p999_us\": " << format_double(scaling[i].p999_us, 2)
           << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"speedup_4_vs_1\": " << format_double(speedup_4x, 3) << ",\n"
         << "  \"hedging\": {\n"
         << "    \"lag_every\": 150, \"lag_ms\": 20,\n"
         << "    \"unhedged_p999_us\": " << format_double(unhedged.p999_us, 2)
         << ",\n"
         << "    \"hedged_p999_us\": " << format_double(hedged.p999_us, 2)
         << ",\n"
         << "    \"hedges_fired\": " << hedged.router.hedges_fired << ",\n"
         << "    \"hedge_wins\": " << hedged.router.hedge_wins << ",\n"
         << "    \"p999_improved\": " << (hedging_ok ? "true" : "false")
         << "\n  },\n"
         << "  \"chaos\": {\n"
         << "    \"requests\": " << chaos_trace.size() << ",\n"
         << "    \"ok\": " << chaos.ok << ",\n"
         << "    \"refused\": " << chaos.non_ok << ",\n"
         << "    \"divergent\": " << chaos.divergent << ",\n"
         << "    \"backend_kills\": " << kills << ",\n"
         << "    \"fault_fires\": " << injector.total_fires() << ",\n"
         << "    \"failovers\": " << chaos.router.failovers << ",\n"
         << "    \"bit_identical\": " << (chaos_ok ? "true" : "false")
         << "\n  },\n"
         << "  \"reconfig\": {\n"
         << "    \"requests\": " << reconfig_trace.size() << ",\n"
         << "    \"rolling_sweeps\": " << rolling_sweeps << ",\n"
         << "    \"drains\": " << rolling_drains << ",\n"
         << "    \"refused\": " << reconfig.non_ok << ",\n"
         << "    \"divergent\": " << reconfig.divergent << ",\n"
         << "    \"zero_loss\": " << (rolling_zero_loss ? "true" : "false")
         << ",\n"
         << "    \"pass\": " << (reconfig_ok ? "true" : "false")
         << "\n  },\n"
         << "  \"overload\": {\n"
         << "    \"deadline_ms\": "
         << format_double(overload_deadline.as_seconds() * 1e3, 0) << ",\n"
         << "    \"capacity_rps\": " << format_double(capacity_rps, 1)
         << ",\n"
         << "    \"admission_shed\": " << overload_admission_shed << ",\n"
         << "    \"points\": [\n";
    for (std::size_t i = 0; i < overload.size(); ++i) {
      const OverloadPoint& point = overload[i];
      json << "      {\"factor\": " << format_double(rate_factors[i], 1)
           << ", \"target_rps\": " << format_double(point.target_rps, 1)
           << ", \"offered_rps\": " << format_double(point.offered_rps, 1)
           << ", \"ok\": " << point.ok << ", \"shed\": " << point.shed
           << ", \"other\": " << point.other
           << ", \"ok_p99_ms\": " << format_double(point.ok_p99_ms, 2) << "}"
           << (i + 1 < overload.size() ? "," : "") << "\n";
    }
    json << "    ],\n"
         << "    \"pass\": " << (overload_ok ? "true" : "false")
         << "\n  },\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  }
  std::cout << "wrote BENCH_cluster.json\n";
  if (!ok) {
    std::cerr << "FAIL:" << (scaling_ok ? "" : " scaling-gate")
              << (hedging_ok ? "" : " hedging-gate")
              << (chaos_ok ? "" : " chaos-gate")
              << (reconfig_ok ? "" : " reconfig-gate")
              << (overload_ok ? "" : " overload-gate") << "\n";
  }
  return ok ? 0 : 1;
}
