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
//     sites while backends are killed and restarted under load, victims
//     drawn from the seeded cluster::ChaosSchedule.  Every successful
//     response must be bit-identical to a single untouched reference
//     server's answer: refusals are visible as typed statuses, wrong
//     answers are a failed bench.
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
// Every phase replays its trace through serve::replay, and every gate
// also demands that no call threw.  Emits BENCH_cluster.json into the
// working directory; exits nonzero if any gate fails.  `--smoke` shrinks
// the request counts for the bench/cluster-labeled ctest smoke.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/disturb.hpp"
#include "cluster/fleet.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"
#include "serve/replay.hpp"
#include "serve/trace.hpp"

using namespace gppm;

namespace {

constexpr sim::GpuModel kBoard = sim::GpuModel::GTX680;

/// Replay `trace` through the fleet's router.
serve::ReplayResult route(cluster::LocalFleet& fleet,
                          const std::vector<serve::Request>& trace,
                          serve::ReplayOptions options,
                          const std::vector<serve::Response>& truth = {}) {
  return serve::replay(
      trace,
      [&fleet](const serve::Request& r) { return fleet.router().predict(r); },
      options, truth);
}

double p_us(const serve::ReplayResult& r, double q) {
  return serve::percentile(r.latencies, q) * 1e6;
}

/// One rate point of the overload sweep.
struct OverloadPoint {
  double target_rps = 0.0;
  double offered_rps = 0.0;  ///< what the open loop actually offered
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;    ///< typed Overloaded answers
  std::uint64_t other = 0;   ///< other typed refusals (deadline etc.)
  std::uint64_t failed = 0;  ///< calls that threw
  double ok_p99_ms = 0.0;    ///< p99 latency of *accepted* requests
};

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
  std::vector<serve::ReplayResult> scaling;
  for (const std::size_t n : fleet_sizes) {
    cluster::FleetOptions fopt;
    fopt.backends = n;
    fopt.shaped = true;
    fopt.shaping.min_service = Duration::milliseconds(1.0);
    fopt.shaping.concurrency = 4;
    cluster::RouterOptions ropt;
    ropt.hedging = false;  // capacity, not tail control, is under test
    cluster::LocalFleet fleet(bm.power, bm.perf, fopt, ropt);
    scaling.push_back(route(fleet, scaling_trace, {32}));
    fleet.stop();
    std::cout << n << " backends: " << format_double(scaling.back().rps(), 0)
              << " req/s, p50 " << format_double(p_us(scaling.back(), 0.50), 0)
              << " us, p999 " << format_double(p_us(scaling.back(), 0.999), 0)
              << " us\n";
  }
  // Smoke runs measure ~0.2 s per fleet size, which on a busy host puts
  // several hundred req/s of noise on the ratio; the full bench keeps the
  // tight gate, the smoke gate only has to catch scaling being broken.
  const double scaling_gate = smoke ? 2.0 : 2.5;
  const double speedup_4x = scaling[2].rps() / scaling[0].rps();
  const bool scaling_ok =
      speedup_4x >= scaling_gate &&
      std::all_of(scaling.begin(), scaling.end(),
                  [](const serve::ReplayResult& r) { return r.failed == 0; });
  std::cout << "4-backend speedup vs 1: " << format_double(speedup_4x, 2)
            << "x (gate >= " << format_double(scaling_gate, 1) << "x)\n";

  // ---- Phase 2: p999 with one-in-150 requests stalling 20 ms, hedging
  // off vs on, under non-saturating load.
  const std::vector<serve::Request> hedge_trace =
      make_trace(corpus, hedge_requests, 1.0);
  serve::ReplayResult unhedged, hedged;
  cluster::RouterStats hedged_router;
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
    (hedging ? hedged : unhedged) = route(fleet, hedge_trace, {8});
    if (hedging) hedged_router = fleet.router().stats();
    fleet.stop();
  }
  const double unhedged_p999 = p_us(unhedged, 0.999);
  const double hedged_p999 = p_us(hedged, 0.999);
  const bool hedging_ok = hedged_p999 < unhedged_p999 &&
                          unhedged.failed == 0 && hedged.failed == 0;
  std::cout << "p999 unhedged " << format_double(unhedged_p999, 0)
            << " us -> hedged " << format_double(hedged_p999, 0) << " us ("
            << hedged_router.hedges_fired << " hedges, "
            << hedged_router.hedge_wins << " wins; gate: lower)\n";

  // ---- Phase 3: chaos.  Wire fleet, faulted sockets, backends dying and
  // recovering under load; every successful answer must match the
  // untouched reference server bit for bit.
  const std::vector<serve::Request> chaos_trace =
      make_trace(corpus, chaos_requests, 0.0);
  const std::vector<serve::Response> chaos_truth =
      serve::reference_answers(chaos_trace, bm.power, bm.perf);
  fault::FaultInjector injector(fault::FaultPlan::net_profile(),
                                bench::kCampaignSeed);
  serve::ReplayResult chaos;
  cluster::RouterStats chaos_router;
  cluster::DisturbReport chaos_disturb;
  {
    cluster::FleetOptions fopt;
    fopt.backends = 3;
    fopt.wire = true;
    fopt.injector = &injector;
    fopt.client.retry.max_attempts = 8;
    fopt.client.retry.initial_backoff = Duration::milliseconds(1.0);
    fopt.client.retry.max_backoff = Duration::milliseconds(50.0);
    cluster::LocalFleet fleet(bm.power, bm.perf, fopt, {});
    cluster::DisturberOptions dopt;
    dopt.seed = bench::kCampaignSeed;
    dopt.kills = true;
    cluster::FleetDisturber reaper(fleet, dopt);
    chaos = route(fleet, chaos_trace, {4}, chaos_truth);
    chaos_disturb = reaper.stop();
    chaos_router = fleet.router().stats();
    fleet.stop();
  }
  const std::uint64_t chaos_refused = chaos.answered() - chaos.ok();
  const bool chaos_ok =
      chaos.divergent == 0 && chaos.ok() > 0 && chaos.failed == 0;
  std::cout << "chaos: " << chaos.ok() << " ok / " << chaos_refused
            << " refused, " << chaos.divergent << " divergent, "
            << chaos_disturb.kills << " backend kills, "
            << injector.total_fires() << "/" << injector.total_checks()
            << " site checks fired\n";

  // ---- Phase 4: reconfig.  Rolling drain/restart of every backend under
  // live traffic.  Planned removals must be invisible: zero refusals, zero
  // divergence, at least one full sweep of the fleet.
  const std::size_t reconfig_requests = smoke ? 3000 : 12000;
  const std::vector<serve::Request> reconfig_trace =
      make_trace(corpus, reconfig_requests, 0.0);
  const std::vector<serve::Response> reconfig_truth =
      serve::reference_answers(reconfig_trace, bm.power, bm.perf);
  serve::ReplayResult reconfig;
  cluster::DisturbReport rolling;
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
    cluster::DisturberOptions dopt;
    dopt.rolling = true;
    cluster::FleetDisturber roller(fleet, dopt);
    reconfig = route(fleet, reconfig_trace, {8}, reconfig_truth);
    rolling = roller.stop();
    fleet.stop();
  }
  const std::uint64_t reconfig_refused = reconfig.answered() - reconfig.ok();
  const bool rolling_zero_loss = rolling.lossy_sweeps == 0;
  const bool reconfig_ok = reconfig_refused == 0 && reconfig.failed == 0 &&
                           reconfig.divergent == 0 && rolling_zero_loss &&
                           rolling.sweep_drains >= reconfig_fleet_size;
  std::cout << "reconfig: " << rolling.sweeps << " rolling sweeps ("
            << rolling.sweep_drains << " drains) under " << reconfig.ok()
            << " requests: " << reconfig_refused << " refused, "
            << reconfig.divergent
            << " divergent (gate: 0/0, zero-loss, full sweep)\n";

  // ---- Phase 5: overload.  Measure the shaped fleet's closed-loop
  // capacity, then offer open-loop load below, near and past it with AIMD
  // admission and a 50 ms deadline.  Accepted work must stay within the
  // deadline at every rate; the excess must come back as typed Overloaded.
  const Duration overload_deadline = Duration::milliseconds(50.0);
  const std::size_t overload_requests = smoke ? 1500 : 4000;
  std::vector<serve::Request> overload_trace =
      make_trace(corpus, overload_requests, 1.0);

  cluster::FleetOptions overload_fopt;
  overload_fopt.backends = 2;
  overload_fopt.shaped = true;
  overload_fopt.shaping.min_service = Duration::milliseconds(1.0);
  overload_fopt.shaping.concurrency = 4;

  serve::ReplayResult calibration;
  {
    // Calibration: closed-loop saturation, admission off.
    cluster::RouterOptions ropt;
    ropt.hedging = false;
    cluster::LocalFleet fleet(bm.power, bm.perf, overload_fopt, ropt);
    const std::vector<serve::Request> calibration_trace(
        overload_trace.begin(),
        overload_trace.begin() +
            static_cast<std::ptrdiff_t>(
                std::min<std::size_t>(overload_trace.size(), 1500)));
    calibration = route(fleet, calibration_trace, {16});
    fleet.stop();
  }
  const double capacity_rps = calibration.rps();

  for (serve::Request& r : overload_trace) r.deadline = overload_deadline;
  const double rate_factors[] = {0.5, 0.8, 1.6};
  std::vector<OverloadPoint> overload;
  std::uint64_t overload_admission_shed = 0;
  for (const double factor : rate_factors) {
    cluster::RouterOptions ropt;
    ropt.hedging = false;
    ropt.admission_control = true;
    cluster::LocalFleet fleet(bm.power, bm.perf, overload_fopt, ropt);
    const double rate = capacity_rps * factor;
    const serve::ReplayResult r = route(fleet, overload_trace, {48, rate});
    overload_admission_shed += fleet.router().stats().admission_shed;
    fleet.stop();
    OverloadPoint point;
    point.target_rps = rate;
    point.offered_rps =
        static_cast<double>(overload_trace.size()) / r.elapsed_seconds;
    point.ok = r.ok();
    point.shed = r.count(serve::ResponseStatus::Overloaded);
    point.other = r.answered() - point.ok - point.shed;
    point.failed = r.failed;
    point.ok_p99_ms = serve::percentile(r.ok_latencies, 0.99) * 1e3;
    overload.push_back(point);
    std::cout << "overload " << format_double(factor, 1) << "x capacity ("
              << format_double(point.target_rps, 0) << " req/s): " << point.ok
              << " ok, " << point.shed << " shed, " << point.other
              << " other, ok-p99 " << format_double(point.ok_p99_ms, 1)
              << " ms\n";
  }
  bool overload_p99_ok = calibration.failed == 0;
  for (const OverloadPoint& point : overload) {
    overload_p99_ok = overload_p99_ok && point.ok > 0 && point.failed == 0 &&
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
  table.add_row({"rps 1 backend", format_double(scaling[0].rps(), 0)});
  table.add_row({"rps 2 backends", format_double(scaling[1].rps(), 0)});
  table.add_row({"rps 4 backends", format_double(scaling[2].rps(), 0)});
  table.add_row({"speedup 4 vs 1", format_double(speedup_4x, 2)});
  table.add_row({"p999 us unhedged", format_double(unhedged_p999, 1)});
  table.add_row({"p999 us hedged", format_double(hedged_p999, 1)});
  table.add_row({"hedges fired", std::to_string(hedged_router.hedges_fired)});
  table.add_row({"chaos divergent", std::to_string(chaos.divergent)});
  table.add_row({"rolling drains", std::to_string(rolling.sweep_drains)});
  table.add_row({"reconfig refused", std::to_string(reconfig_refused)});
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
    json << "{\n  \"schema\": \"gppm.bench_cluster.v2\",\n";
    bench::json_env_stamp(json, smoke);
    json << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      json << "    {\"backends\": " << fleet_sizes[i]
           << ", \"rps\": " << format_double(scaling[i].rps(), 1)
           << ", \"p50_us\": " << format_double(p_us(scaling[i], 0.50), 2)
           << ", \"p99_us\": " << format_double(p_us(scaling[i], 0.99), 2)
           << ", \"p999_us\": " << format_double(p_us(scaling[i], 0.999), 2)
           << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"speedup_4_vs_1\": " << format_double(speedup_4x, 3) << ",\n"
         << "  \"hedging\": {\n"
         << "    \"lag_every\": 150, \"lag_ms\": 20,\n"
         << "    \"unhedged_p999_us\": " << format_double(unhedged_p999, 2)
         << ",\n"
         << "    \"hedged_p999_us\": " << format_double(hedged_p999, 2)
         << ",\n"
         << "    \"hedges_fired\": " << hedged_router.hedges_fired << ",\n"
         << "    \"hedge_wins\": " << hedged_router.hedge_wins << ",\n"
         << "    \"p999_improved\": " << (hedging_ok ? "true" : "false")
         << "\n  },\n"
         << "  \"chaos\": {\n"
         << "    \"requests\": " << chaos_trace.size() << ",\n"
         << "    \"ok\": " << chaos.ok() << ",\n"
         << "    \"refused\": " << chaos_refused << ",\n"
         << "    \"divergent\": " << chaos.divergent << ",\n"
         << "    \"backend_kills\": " << chaos_disturb.kills << ",\n"
         << "    \"fault_fires\": " << injector.total_fires() << ",\n"
         << "    \"failovers\": " << chaos_router.failovers << ",\n"
         << "    \"bit_identical\": " << (chaos_ok ? "true" : "false")
         << "\n  },\n"
         << "  \"reconfig\": {\n"
         << "    \"requests\": " << reconfig_trace.size() << ",\n"
         << "    \"rolling_sweeps\": " << rolling.sweeps << ",\n"
         << "    \"drains\": " << rolling.sweep_drains << ",\n"
         << "    \"refused\": " << reconfig_refused << ",\n"
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
