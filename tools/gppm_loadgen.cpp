// gppm-loadgen — load generator for gppm serving, wire-level or clustered.
//
// Two modes:
//
//   gppm-loadgen --connect HOST:PORT [--requests N] [--connections N]
//                [--open-loop RATE] [--jitter F] [--chaos] [--seed N]
//
// dials a running `gppm serve --listen` server, asks it (InfoRequest) which
// boards it serves, replays a synthetic suite trace for the first announced
// board over N pooled connections, and reports throughput plus the
// client-side latency distribution and per-status response counts.
//
//   gppm-loadgen --cluster N [--replicas R] [--gpu NAME] [--requests N]
//                [--connections N] [--open-loop RATE] [--jitter F]
//                [--chaos] [--seed N] [--drain-every MS]
//                [--rolling-restart] [--supervise] [--admission]
//                [--deadline-ms MS]
//
// self-hosts a cluster::LocalFleet of N backend prediction servers behind a
// Router (R replicas per key, hedged requests, circuit breaking) and drives
// it with worker threads.  Every answer is checked bit-identically against
// a single untouched reference server holding a copy of the same model
// pair: the run FAILS (nonzero exit) if any successful response diverges.
// --chaos puts each backend behind its own loopback gppm::net server,
// routes the router's client sockets through the cluster chaos profile
// fault sites (connect refusals, short reads, mid-frame resets, lost
// supervisor probes, slow drains) and additionally kills/restarts backends
// while the trace replays — the zero-wrong-answers gate must hold through
// all of it.  Victims come from a seeded cluster::ChaosSchedule, so the
// same --seed disturbs the same nodes in the same order run to run; the
// event log is printed at the end for diffing.
//
// Reconfiguration-under-load flags, composable with --chaos:
//   --drain-every MS    a drain scheduler drains and rejoins nodes on a
//                       seeded schedule, one planned handoff every MS;
//   --rolling-restart   continuously cycles fleet.rolling_restart() —
//                       drain → restart → rejoin of every node in turn;
//   --supervise         a cluster::Supervisor owns recovery: the chaos
//                       reaper only kills, the supervisor's probes and
//                       budgeted backoff restarts bring nodes back;
//   --admission         AIMD + deadline-aware admission control at the
//                       router door (excess load sheds as Overloaded);
//   --deadline-ms MS    stamp every request with a service deadline (the
//                       admission estimate sheds what cannot make it).
//
// Closed loop by default: each worker keeps exactly one request in flight.
// --open-loop paces aggregate arrivals at RATE requests/sec instead
// (workers sleep until each request's scheduled departure), which is how
// you measure latency under non-saturating load.  The fault injector is
// internally synchronized, so chaos runs may use any --connections; runs
// are only byte-reproducible at --connections 1 (fault arrival then has a
// deterministic interleaving).
//
// SIGINT/SIGTERM drain the in-flight work, print the partial report,
// flush --metrics-out/--trace-out, and exit 0 (divergence still fails).
//
// Also accepts the global --trace-out=FILE / --metrics-out=FILE
// observability flags (see gppm --help).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fleet.hpp"
#include "cluster/schedule.hpp"
#include "cluster/supervisor.hpp"
#include "common/shutdown.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "core/characterization.hpp"
#include "fault/injector.hpp"
#include "net/client.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

using namespace gppm;

namespace {

int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  gppm-loadgen --connect HOST:PORT [--requests N]"
         " [--connections N]\n"
         "               [--open-loop RATE] [--jitter F] [--chaos]"
         " [--seed N]\n"
         "  gppm-loadgen --cluster N [--replicas R] [--gpu NAME]"
         " [--requests N]\n"
         "               [--connections N] [--open-loop RATE] [--jitter F]\n"
         "               [--chaos] [--seed N] [--drain-every MS]"
         " [--rolling-restart]\n"
         "               [--supervise] [--admission] [--deadline-ms MS]\n"
         "also accepts --trace-out=FILE --metrics-out=FILE\n"
         "gpus: gtx285 gtx460 gtx480 gtx680\n";
  return code;
}

struct Options {
  std::string host;
  std::uint16_t port = 0;
  std::size_t requests = 2000;
  std::size_t connections = 4;
  double open_loop_rate = 0.0;  // 0 = closed loop
  double jitter = 0.0;
  bool chaos = false;
  std::uint64_t seed = 42;
  std::size_t cluster = 0;  // 0 = wire mode (--connect)
  std::size_t replicas = 2;
  std::string gpu = "gtx460";
  double drain_every_ms = 0.0;  // 0 = no drain scheduler
  bool rolling_restart = false;
  bool supervise = false;
  bool admission = false;
  double deadline_ms = 0.0;  // 0 = no per-request deadline
};

void parse_connect(const std::string& value, Options& opt) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == value.size()) {
    throw Error("--connect expects HOST:PORT, got '" + value + "'");
  }
  opt.host = value.substr(0, colon);
  const unsigned long port = std::stoul(value.substr(colon + 1));
  if (port == 0 || port > 65535) throw Error("port out of range");
  opt.port = static_cast<std::uint16_t>(port);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

void add_latency_rows(AsciiTable& table, const std::vector<double>& sorted) {
  table.add_row({"p50 us", format_double(percentile(sorted, 0.50) * 1e6, 1)});
  table.add_row({"p95 us", format_double(percentile(sorted, 0.95) * 1e6, 1)});
  table.add_row({"p99 us", format_double(percentile(sorted, 0.99) * 1e6, 1)});
  table.add_row(
      {"p999 us", format_double(percentile(sorted, 0.999) * 1e6, 1)});
}

/// Self-hosted fleet mode: build models once, answer the whole trace from
/// a reference single-node server, then drive the routed fleet and demand
/// bit-identity for every successful response.
int run_cluster(const Options& opt) {
  const sim::GpuModel board = sim::parse_gpu(opt.gpu);
  std::cout << "fitting models for " << sim::to_string(board)
            << " (extended form)...\n";
  const core::Dataset ds = core::build_dataset(board);
  core::ModelOptions popt;
  popt.scaling = core::FeatureScaling::VoltageSquaredFrequency;
  popt.include_baseline_terms = true;
  const core::UnifiedModel power =
      core::UnifiedModel::fit(ds, core::TargetKind::Power, popt);
  const core::UnifiedModel perf =
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);

  const serve::PhaseCorpus corpus = serve::build_phase_corpus(board);
  serve::TraceOptions topt;
  topt.request_count = opt.requests;
  topt.seed = opt.seed;
  topt.counter_jitter = opt.jitter;
  // Govern is stateful (hysteresis across requests), so replicated serving
  // cannot promise bit-identity for it; the cluster trace sticks to the
  // pure endpoints.
  topt.govern_fraction = 0.0;
  std::vector<serve::Request> trace = serve::synthetic_trace(corpus, topt);

  // Ground truth: one untouched in-process server with its own copy of
  // the same model pair answers the whole trace up front.
  std::vector<serve::Response> truth(trace.size());
  {
    serve::PredictionServer reference;
    reference.load_models(power, perf);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      truth[i] = reference.submit(trace[i]).get();
    }
  }

  // Deadlines are stamped after the ground truth is computed, so the
  // reference answers stay the pure, deadline-free responses the gate
  // compares against.
  if (opt.deadline_ms > 0.0) {
    for (serve::Request& r : trace) {
      r.deadline = Duration::milliseconds(opt.deadline_ms);
    }
  }

  fault::FaultInjector injector(fault::FaultPlan::cluster_profile(),
                                opt.seed);
  cluster::FleetOptions fopt;
  fopt.backends = opt.cluster;
  if (opt.chaos) {
    fopt.wire = true;
    fopt.injector = &injector;
    fopt.client.retry.max_attempts = 8;
    fopt.client.retry.initial_backoff = Duration::milliseconds(1.0);
    fopt.client.retry.max_backoff = Duration::milliseconds(50.0);
  }
  cluster::RouterOptions ropt;
  ropt.replicas = opt.replicas;
  if (opt.chaos) ropt.injector = &injector;
  if (opt.admission) {
    ropt.admission_control = true;
  }
  cluster::LocalFleet fleet(power, perf, fopt, ropt);

  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << opt.cluster << " backends ("
            << (opt.chaos ? "wire" : "in-process") << "), " << opt.replicas
            << " replicas per key, " << opt.connections << " workers, ";
  if (opt.open_loop_rate > 0.0) {
    std::cout << "open loop at " << format_double(opt.open_loop_rate, 0)
              << " req/s\n";
  } else {
    std::cout << "closed loop\n";
  }

  std::mutex merge_mutex;
  std::vector<double> latencies;
  std::map<std::string, std::uint64_t> status_counts;
  std::atomic<std::uint64_t> divergent{0};
  std::atomic<std::size_t> next{0};

  std::atomic<bool> running{true};
  auto paced_sleep = [&](double total_ms) {
    const auto tick = std::chrono::milliseconds(10);
    auto left = std::chrono::duration<double, std::milli>(total_ms);
    while (running.load() && !shutdown_requested() &&
           left.count() > 0.0) {
      std::this_thread::sleep_for(tick);
      left -= tick;
    }
  };

  // The supervisor owns recovery under --supervise: the reaper only
  // kills, and the probe → backoff → restart loop brings nodes back.
  std::unique_ptr<cluster::Supervisor> supervisor;
  if (opt.supervise) {
    cluster::SupervisorOptions sup;
    sup.seed = opt.seed;
    if (opt.chaos) sup.injector = &injector;
    supervisor = std::make_unique<cluster::Supervisor>(fleet, sup);
  }

  // Chaos additionally cycles real backend deaths through the run.  The
  // victims come from a seeded schedule, so two runs with the same --seed
  // disturb the same nodes in the same order (the event log below).
  cluster::ChaosSchedule reaper_schedule(
      {opt.seed, fleet.size(), /*drains=*/false, /*kills=*/true});
  std::atomic<std::uint64_t> kills{0};
  std::thread reaper;
  if (opt.chaos && fleet.size() > 1) {
    reaper = std::thread([&] {
      while (running.load() && !shutdown_requested()) {
        const cluster::ChaosEvent event = reaper_schedule.next();
        switch (event.action) {
          case cluster::ChaosAction::Kill:
            fleet.kill(event.node);
            kills.fetch_add(1);
            // Supervised recovery needs detection (threshold probes) plus
            // backoff before the node returns; pace the mayhem to match.
            paced_sleep(opt.supervise ? 250.0 : 40.0);
            break;
          case cluster::ChaosAction::Restart:
            // Under supervision the restart belongs to the supervisor;
            // the schedule still emits the event so logs stay identical
            // across supervised and unsupervised same-seed runs.
            if (!opt.supervise) fleet.restart(event.node);
            paced_sleep(60.0);
            break;
          default:
            break;
        }
      }
    });
  }

  // Planned reconfiguration under load: a drain scheduler cycles
  // drain → rejoin handoffs on its own seeded schedule.
  cluster::ChaosSchedule drain_schedule(
      {opt.seed, fleet.size(), /*drains=*/true, /*kills=*/false});
  std::atomic<std::uint64_t> drains{0};
  std::atomic<std::uint64_t> drain_losses{0};
  std::thread drainer;
  if (opt.drain_every_ms > 0.0 && fleet.size() > 1) {
    drainer = std::thread([&] {
      while (running.load() && !shutdown_requested()) {
        paced_sleep(opt.drain_every_ms);
        if (!running.load() || shutdown_requested()) break;
        const cluster::ChaosEvent event = drain_schedule.next();
        switch (event.action) {
          case cluster::ChaosAction::Drain: {
            const cluster::DrainReport report =
                fleet.drain_node(event.node);
            drains.fetch_add(1);
            if (!report.zero_loss) drain_losses.fetch_add(1);
            break;
          }
          case cluster::ChaosAction::Rejoin:
            fleet.rejoin(event.node);
            break;
          default:
            break;
        }
      }
    });
  }

  // Or the full upgrade shape: rolling drain → restart → rejoin sweeps.
  std::mutex rolling_mutex;
  std::vector<cluster::RollingRestartReport> rolling_reports;
  std::thread roller;
  if (opt.rolling_restart) {
    roller = std::thread([&] {
      while (running.load() && !shutdown_requested()) {
        cluster::RollingRestartReport report = fleet.rolling_restart();
        {
          std::lock_guard<std::mutex> lock(rolling_mutex);
          rolling_reports.push_back(std::move(report));
        }
        paced_sleep(100.0);
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> interval(
      opt.open_loop_rate > 0.0 ? 1.0 / opt.open_loop_rate : 0.0);
  std::vector<std::thread> workers;
  workers.reserve(opt.connections);
  for (std::size_t w = 0; w < opt.connections; ++w) {
    workers.emplace_back([&] {
      std::vector<double> local_lat;
      std::map<std::string, std::uint64_t> local_status;
      std::uint64_t local_divergent = 0;
      for (std::size_t i = next.fetch_add(1); i < trace.size();
           i = next.fetch_add(1)) {
        if (shutdown_requested()) break;  // drain: finish nothing new
        if (opt.open_loop_rate > 0.0) {
          std::this_thread::sleep_until(start +
                                        interval * static_cast<double>(i));
        }
        const auto t0 = std::chrono::steady_clock::now();
        const serve::Response r = fleet.router().predict(trace[i]);
        local_lat.push_back(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        ++local_status[serve::to_string(r.status)];
        // The gate: every *successful* routed answer must equal the
        // single-node ground truth bit for bit.  Typed failures (a replica
        // set momentarily dead under chaos) are visible above as non-Ok
        // status counts — they are refusals, never wrong answers.
        if (r.ok() && !serve::bit_identical(r, truth[i])) ++local_divergent;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
      for (const auto& [status, count] : local_status) {
        status_counts[status] += count;
      }
      divergent.fetch_add(local_divergent);
    });
  }
  for (std::thread& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  running.store(false);
  if (reaper.joinable()) reaper.join();
  if (drainer.joinable()) drainer.join();
  if (roller.joinable()) roller.join();
  if (supervisor) supervisor->stop();

  std::sort(latencies.begin(), latencies.end());
  const auto ok_it = status_counts.find(serve::to_string(serve::ResponseStatus::Ok));
  const std::uint64_t ok = ok_it != status_counts.end() ? ok_it->second : 0;
  AsciiTable table({"metric", "value"});
  table.add_row({"answered", std::to_string(latencies.size())});
  for (const auto& [status, count] : status_counts) {
    table.add_row({"status " + status, std::to_string(count)});
  }
  table.add_row({"divergent", std::to_string(divergent.load())});
  table.add_row(
      {"req/s", format_double(static_cast<double>(latencies.size()) / elapsed,
                              0)});
  add_latency_rows(table, latencies);
  table.print(std::cout);

  const cluster::RouterStats rs = fleet.router().stats();
  std::cout << rs.requests << " routed, " << rs.hedges_fired << " hedges ("
            << rs.hedge_wins << " wins, " << rs.hedges_abandoned
            << " abandoned), " << rs.failovers << " failovers, "
            << rs.breaker_opens << " breaker opens, " << rs.breaker_rejections
            << " breaker rejections, " << rs.exhausted << " exhausted\n";
  if (rs.drains > 0 || opt.admission) {
    std::cout << rs.drains << " drains (" << rs.drain_handed_off
              << " requests handed off), " << rs.admission_shed
              << " shed by admission\n";
  }
  if (opt.drain_every_ms > 0.0) {
    std::cout << "drain scheduler: " << drains.load() << " planned drains, "
              << drain_losses.load() << " with loss\n";
  }
  if (opt.rolling_restart) {
    std::size_t sweeps = 0;
    std::size_t lossy = 0;
    {
      std::lock_guard<std::mutex> lock(rolling_mutex);
      sweeps = rolling_reports.size();
      for (const cluster::RollingRestartReport& report : rolling_reports) {
        if (!report.zero_loss) ++lossy;
      }
    }
    std::cout << "rolling restarts: " << sweeps << " full sweeps, " << lossy
              << " with loss\n";
  }
  if (supervisor) {
    const cluster::SupervisorStats ss = supervisor->stats();
    std::cout << "supervisor: " << ss.probes << " probes ("
              << ss.probe_failures << " failed, " << ss.probes_lost
              << " injected losses), " << ss.restarts << " restarts, "
              << ss.budget_exhausted << " budget exhaustions\n";
  }
  if (opt.chaos) {
    std::cout << "chaos: " << kills.load() << " backend kills, "
              << injector.total_fires() << "/" << injector.total_checks()
              << " site checks fired\n";
  }
  // The full disturbance history, one event per line: two same-seed runs
  // emit identical logs (diff them to prove a repro).
  const std::string events =
      reaper_schedule.log_string() + drain_schedule.log_string();
  if (!events.empty()) {
    std::cout << "event log (seed " << opt.seed << "):\n" << events;
  }
  fleet.stop();

  if (divergent.load() != 0) {
    std::cerr << "FAIL: " << divergent.load()
              << " successful responses diverged from single-node ground"
                 " truth\n";
    return 1;
  }
  if (shutdown_requested()) {
    std::cout << "interrupted: partial run, " << ok
              << " successful responses (all bit-identical)\n";
    return 0;
  }
  if (ok == 0) {
    std::cerr << "FAIL: no successful responses\n";
    return 1;
  }
  std::cout << "bit-identity gate: " << ok << "/" << ok
            << " successful responses identical to single-node ground"
               " truth\n";
  return 0;
}

int run_wire(const Options& opt) {
  fault::FaultInjector injector(fault::FaultPlan::net_profile(), opt.seed);
  net::ClientOptions copt;
  copt.host = opt.host;
  copt.port = opt.port;
  copt.pool_size = opt.connections;
  if (opt.chaos) {
    copt.retry.max_attempts = 8;
    copt.retry.initial_backoff = Duration::milliseconds(1.0);
    copt.retry.max_backoff = Duration::milliseconds(50.0);
  }
  net::Client client(copt, opt.chaos ? &injector : nullptr);

  client.ping();
  const net::ServerInfo info = client.info();
  if (info.boards.empty()) throw Error("server has no models loaded");
  const sim::GpuModel board = info.boards.front().gpu;
  std::cout << "server speaks protocol v"
            << static_cast<int>(info.protocol_version) << ", boards:";
  for (const net::ModelInfo& m : info.boards) {
    std::cout << " " << sim::to_string(m.gpu);
  }
  std::cout << "\nbuilding " << sim::to_string(board) << " phase corpus...\n";

  const serve::PhaseCorpus corpus = serve::build_phase_corpus(board);
  serve::TraceOptions topt;
  topt.request_count = opt.requests;
  topt.seed = opt.seed;
  topt.counter_jitter = opt.jitter;
  const std::vector<serve::Request> trace =
      serve::synthetic_trace(corpus, topt);

  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << opt.connections << " connections, ";
  if (opt.open_loop_rate > 0.0) {
    std::cout << "open loop at " << format_double(opt.open_loop_rate, 0)
              << " req/s\n";
  } else {
    std::cout << "closed loop\n";
  }

  std::mutex merge_mutex;
  std::vector<double> latencies;
  std::map<std::string, std::uint64_t> status_counts;
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> next{0};

  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> interval(
      opt.open_loop_rate > 0.0 ? 1.0 / opt.open_loop_rate : 0.0);
  std::vector<std::thread> workers;
  workers.reserve(opt.connections);
  for (std::size_t w = 0; w < opt.connections; ++w) {
    workers.emplace_back([&] {
      std::vector<double> local_lat;
      std::map<std::string, std::uint64_t> local_status;
      for (std::size_t i = next.fetch_add(1); i < trace.size();
           i = next.fetch_add(1)) {
        if (shutdown_requested()) break;  // drain: finish nothing new
        if (opt.open_loop_rate > 0.0) {
          std::this_thread::sleep_until(start +
                                        interval * static_cast<double>(i));
        }
        const auto t0 = std::chrono::steady_clock::now();
        try {
          const serve::Response r = client.predict(trace[i]);
          local_lat.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
          ++local_status[serve::to_string(r.status)];
        } catch (const net::NetError&) {
          // Retries exhausted (chaos) or the server went away: counted,
          // not fatal — the report must show partial failure honestly.
          failed.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local_lat.begin(), local_lat.end());
      for (const auto& [status, count] : local_status) {
        status_counts[status] += count;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::sort(latencies.begin(), latencies.end());
  AsciiTable table({"metric", "value"});
  table.add_row({"answered", std::to_string(latencies.size())});
  table.add_row({"transport failures", std::to_string(failed.load())});
  for (const auto& [status, count] : status_counts) {
    table.add_row({"status " + status, std::to_string(count)});
  }
  table.add_row(
      {"req/s", format_double(static_cast<double>(latencies.size()) / elapsed,
                              0)});
  add_latency_rows(table, latencies);
  table.print(std::cout);

  const net::ClientStats cs = client.stats();
  std::cout << cs.rpcs << " RPCs, " << cs.reconnects << " reconnects, "
            << cs.transport_retries << " transport retries, " << cs.bytes_sent
            << " bytes out / " << cs.bytes_received << " in\n";
  if (opt.chaos) {
    std::cout << "chaos: " << injector.total_fires() << "/"
              << injector.total_checks() << " site checks fired\n";
  }
  if (shutdown_requested()) {
    std::cout << "interrupted: partial run\n";
    return 0;
  }
  return failed.load() == trace.size() ? 1 : 0;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--connect" && has_value) {
      parse_connect(argv[++i], opt);
    } else if (arg == "--cluster" && has_value) {
      opt.cluster = std::stoul(argv[++i]);
    } else if (arg == "--replicas" && has_value) {
      opt.replicas = std::stoul(argv[++i]);
    } else if (arg == "--gpu" && has_value) {
      opt.gpu = argv[++i];
    } else if (arg == "--requests" && has_value) {
      opt.requests = std::stoul(argv[++i]);
    } else if (arg == "--connections" && has_value) {
      opt.connections = std::stoul(argv[++i]);
    } else if (arg == "--open-loop" && has_value) {
      opt.open_loop_rate = std::stod(argv[++i]);
    } else if (arg == "--jitter" && has_value) {
      opt.jitter = std::stod(argv[++i]);
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--drain-every" && has_value) {
      opt.drain_every_ms = std::stod(argv[++i]);
    } else if (arg == "--rolling-restart") {
      opt.rolling_restart = true;
    } else if (arg == "--supervise") {
      opt.supervise = true;
    } else if (arg == "--admission") {
      opt.admission = true;
    } else if (arg == "--deadline-ms" && has_value) {
      opt.deadline_ms = std::stod(argv[++i]);
    } else {
      return usage(std::cerr, 2);
    }
  }
  const bool wire = !opt.host.empty();
  const bool fleet = opt.cluster > 0;
  if (wire == fleet || opt.requests == 0 || opt.connections == 0 ||
      opt.replicas == 0) {
    return usage(std::cerr, 2);
  }
  if (!fleet && (opt.drain_every_ms > 0.0 || opt.rolling_restart ||
                 opt.supervise || opt.admission || opt.deadline_ms > 0.0)) {
    return usage(std::cerr, 2);  // reconfiguration flags are --cluster only
  }
  return fleet ? run_cluster(opt) : run_wire(opt);
}

}  // namespace

int main(int argc, char** argv) {
  // Same global observability contract as gppm: strip the flags before
  // option parsing, flush the artifacts after the run.
  std::string trace_out;
  std::string metrics_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (starts_with(arg, "--trace-out=")) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg == "--metrics-out" && has_value) {
      metrics_out = argv[++i];
    } else if (starts_with(arg, "--metrics-out=")) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!trace_out.empty() || !metrics_out.empty()) obs::set_enabled(true);
  // Ctrl-C drains the run and still reaches the flush below (exit 0).
  install_shutdown_handler();

  try {
    const int rc = run(static_cast<int>(args.size()), args.data());
    if (!trace_out.empty()) {
      obs::write_trace_file(trace_out);
      std::cout << "trace written to " << trace_out << "\n";
    }
    if (!metrics_out.empty()) {
      obs::write_metrics_file(metrics_out);
      std::cout << "metrics written to " << metrics_out << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
