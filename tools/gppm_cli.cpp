// gppm command-line interface: the boards and the suite, the TABLE IV
// sweeps, the unified models of §IV, the offline and online governors, the
// prediction server (in process, on the wire, behind a routed fleet under
// seeded chaos), fault-injected characterization and kernel mixes.
// usage() lists every command; each cmd_* function declares its flags
// once, with their ranges (flags.hpp).  Any command also accepts
// --trace-out=FILE and --metrics-out=FILE: either enables gppm::obs for the
// run and, on exit, writes the spans as Chrome trace_event JSON and the
// metrics registry as CSV.  Exit codes: 0 success, 1 runtime or gate
// failure, 2 usage error (`--help` after any command: usage, exit 0).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str.hpp"
#include "common/table.hpp"
#include "core/characterization.hpp"
#include "core/evaluation.hpp"
#include "core/governor.hpp"
#include "core/serialization.hpp"
#include "dvfs/combos.hpp"
#include "governor/loop.hpp"
#include "kernelir/programs.hpp"
#include "kernelir/trace.hpp"
#include "mix/engine.hpp"
#include "mix/model.hpp"
#include "mix/schedule.hpp"
#include "cluster/disturb.hpp"
#include "cluster/fleet.hpp"
#include "cluster/supervisor.hpp"
#include "common/shutdown.hpp"
#include "fault/injector.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "profiler/cuda_profiler.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "workload/suite.hpp"
#include "flags.hpp"

using namespace gppm;

namespace {

// Bounds of the flags that size a thread pool, a node set, the trace or a
// wait.  Thread counts follow GPPM_THREADS's clamp in parallel_threads();
// durations stay under a day and rates above 0.01 req/s, so every
// conversion to integer clock ticks stays far from overflow.
constexpr std::uint64_t kMaxThreads = 256;   // --workers/clients/connections
constexpr std::uint64_t kMaxNodes = 64;      // --cluster --replicas
constexpr std::uint64_t kMaxTrace = 100000;  // --requests --phases --mixes
constexpr std::uint64_t kMaxCache = 1 << 24;
constexpr double kMaxSeconds = 86400.0;  // --duration; the ms flags x 1000
constexpr double kMinRate = 0.01, kMaxRate = 1e7;  // --open-loop, req/s

/// Explicitly requested help prints to stdout and exits 0; a bad
/// invocation prints the same text to stderr and exits 2.
int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  gppm specs\n"
         "  gppm pairs <gpu>\n"
         "  gppm counters <gpu>\n"
         "  gppm trace <ir-program>\n"
         "  gppm benchmarks\n"
         "  gppm sweep <gpu> <benchmark>\n"
         "  gppm fit <gpu> <power|exectime> [--out FILE] [--v2f] [--baseline]\n"
         "  gppm predict <model-file> <benchmark> [size-index]\n"
         "  gppm governor <gpu> <benchmark> [benchmark...]\n"
         "  gppm govern <gpu> [--policy energy|edp|perf-cap] [--phases N]"
         " [--seed N]\n"
         "              [--cap W] [--max-slowdown F] [--window N] [--refit N]"
         " [--no-baselines]\n"
         "  gppm serve <gpu> --listen PORT [--workers N] [--cache N]"
         " [--duration S]\n"
         "                  [--cluster N [--replicas R] [--supervise]"
         " [--admission]]\n"
         "  gppm serve-bench <gpu> [--requests N] [--workers N] [--clients N]"
         " [--cache N] [--jitter F]\n"
         "                  [--all-sizes] [--csv]"
         " [--power-model FILE --perf-model FILE]\n"
         "  gppm loadgen --connect HOST:PORT [--requests N] [--connections N]\n"
         "               [--open-loop RATE] [--jitter F] [--chaos] [--seed N]\n"
         "  gppm loadgen --cluster N [--replicas R] [--gpu NAME]"
         " [--requests N]\n"
         "               [--connections N] [--open-loop RATE] [--jitter F]\n"
         "               [--chaos] [--seed N] [--drain-every MS]"
         " [--rolling-restart]\n"
         "               [--supervise] [--admission] [--deadline-ms MS]\n"
         "  gppm chaos <gpu> [--fault-profile FILE] [--seed N]"
         " [--benchmarks N]\n"
         "  gppm mix <gpu> [--mixes N] [--degree D] [--seed N] [--fit]\n"
         "  gppm obs-demo\n"
         "any command also accepts --trace-out=FILE --metrics-out=FILE\n"
         "gpus: gtx285 gtx460 gtx480 gtx680\n";
  return code;
}

/// The model pair every pair-picking command serves or governs with: the
/// extended-form power model and the exec-time model, fitted on the
/// board's corpus (kept for the governor loop).
struct ModelPair {
  core::Dataset dataset;
  core::UnifiedModel power;
  core::UnifiedModel perf;
};

ModelPair fit_model_pair(sim::GpuModel board) {
  core::Dataset ds = core::build_dataset(board);
  core::UnifiedModel power = core::UnifiedModel::fit(
      ds, core::TargetKind::Power, core::extended_power_options());
  core::UnifiedModel perf =
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);
  return {std::move(ds), std::move(power), std::move(perf)};
}

/// Under --chaos, clients ride out injected transport faults: up to 8
/// attempts, backing off from 1 ms to 50 ms.
void use_chaos_retry(net::ClientOptions& client) {
  client.retry.max_attempts = 8;
  client.retry.initial_backoff = Duration::milliseconds(1.0);
  client.retry.max_backoff = Duration::milliseconds(50.0);
}

int cmd_specs(cli::Flags& flags) {
  flags.parse();
  AsciiTable table({"GPU", "arch", "cores", "GFLOPS", "GB/s", "TDP W",
                    "counters"});
  for (sim::GpuModel m : sim::kAllGpus) {
    const sim::DeviceSpec& s = sim::device_spec(m);
    table.add_row({sim::to_string(m), sim::to_string(s.architecture),
                   std::to_string(s.cuda_cores), format_double(s.peak_gflops, 0),
                   format_double(s.mem_bandwidth_gbps, 1),
                   format_double(s.tdp.as_watts(), 0),
                   std::to_string(s.performance_counter_count)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_pairs(cli::Flags& flags) {
  const sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  const sim::DeviceSpec& spec = sim::device_spec(model);
  AsciiTable table({"pair", "core MHz", "mem MHz"});
  for (sim::FrequencyPair p : dvfs::configurable_pairs(model)) {
    table.add_row({sim::to_string(p),
                   format_double(spec.core_clock.at(p.core).frequency.as_mhz(), 0),
                   format_double(spec.mem_clock.at(p.mem).frequency.as_mhz(), 0)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_counters(cli::Flags& flags) {
  const sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  const auto& catalog =
      profiler::counter_catalog(sim::device_spec(model).architecture);
  AsciiTable table({"#", "counter", "class"});
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    table.add_row({std::to_string(i), catalog[i].name,
                   profiler::to_string(catalog[i].klass)});
  }
  table.print(std::cout);
  std::cout << catalog.size() << " counters ("
            << sim::to_string(sim::device_spec(model).architecture) << ")\n";
  return 0;
}

int cmd_trace(cli::Flags& flags) {
  const std::string which = flags.parse(1)[0];
  ir::Program program;
  if (which == "vector_add") {
    program = ir::vector_add(1 << 22);
  } else if (which == "matmul") {
    program = ir::matrix_mul_tiled(1024);
  } else if (which == "transpose") {
    program = ir::transpose_naive(2048);
  } else if (which == "stencil") {
    program = ir::stencil5(1 << 20, 8);
  } else if (which == "histogram") {
    program = ir::histogram_shared(8, 32);
  } else if (which == "pointer_chase") {
    program = ir::pointer_chase(1 << 20, 32, 0.4);
  } else {
    throw Error("unknown IR program '" + which +
                "' (vector_add, matmul, transpose, stencil, histogram, "
                "pointer_chase)");
  }
  const ir::TraceStats s = ir::trace_block(program);
  AsciiTable table({"quantity", "measured (per thread)"});
  table.add_row({"FLOPs", format_double(s.flops, 1)});
  table.add_row({"int ops", format_double(s.int_ops, 1)});
  table.add_row({"SFU ops", format_double(s.special_ops, 1)});
  table.add_row({"shared ops", format_double(s.shared_ops, 1)});
  table.add_row({"global load bytes", format_double(s.global_load_bytes, 1)});
  table.add_row({"global store bytes", format_double(s.global_store_bytes, 1)});
  table.add_row({"coalescing", format_double(s.coalescing, 3)});
  table.add_row({"locality", format_double(s.locality, 3)});
  table.add_row({"bank-conflict replay", format_double(s.bank_conflict, 2)});
  table.add_row({"divergence factor", format_double(s.divergence, 2)});
  table.add_row({"barriers", format_double(s.syncs, 1)});
  std::cout << "traced " << program.name << " ("
            << program.threads_per_block << " threads x "
            << program.iterations << " iterations, one block)\n";
  table.print(std::cout);
  return 0;
}

int cmd_benchmarks(cli::Flags& flags) {
  flags.parse();
  AsciiTable table({"benchmark", "suite", "input sizes", "profiler"});
  for (const workload::BenchmarkDef& def : workload::benchmark_suite()) {
    table.add_row({def.name, workload::to_string(def.suite),
                   std::to_string(def.size_count),
                   profiler::CudaProfiler::supports(def.name) ? "ok"
                                                              : "unsupported"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_sweep(cli::Flags& flags) {
  const std::vector<std::string> args = flags.parse(2);
  const sim::GpuModel model = sim::parse_gpu(args[0]);
  const workload::BenchmarkDef& bench = workload::find_benchmark(args[1]);
  core::MeasurementRunner runner(model);
  const core::Sweep sweep =
      core::sweep_pairs(runner, bench, bench.size_count - 1);

  AsciiTable table({"pair", "time s", "power W", "energy J", "rel perf",
                    "rel eff"});
  for (const core::PairResult& r : sweep.results) {
    table.add_row({sim::to_string(r.measurement.pair),
                   format_double(r.measurement.exec_time.as_seconds(), 3),
                   format_double(r.measurement.avg_power.as_watts(), 1),
                   format_double(r.measurement.energy.as_joules(), 1),
                   format_double(r.relative_performance, 3),
                   format_double(r.relative_efficiency, 3)});
  }
  table.print(std::cout);
  std::cout << "best pair " << sim::to_string(sweep.best_pair())
            << ", efficiency +" << format_double(sweep.improvement_percent(), 1)
            << "%, performance -"
            << format_double(sweep.performance_loss_percent(), 1) << "%\n";
  return 0;
}

int cmd_fit(cli::Flags& flags) {
  core::ModelOptions opt;
  std::string out_file;
  bool v2f = false;
  flags.text("--out", out_file)
      .toggle("--v2f", v2f)
      .toggle("--baseline", opt.include_baseline_terms);
  const std::vector<std::string> args = flags.parse(2);
  const sim::GpuModel model = sim::parse_gpu(args[0]);
  if (args[1] != "power" && args[1] != "exectime") {
    throw cli::UsageError("fit target must be power or exectime, got '" +
                          args[1] + "'");
  }
  const core::TargetKind target = args[1] == "power"
                                      ? core::TargetKind::Power
                                      : core::TargetKind::ExecTime;
  if (v2f) opt.scaling = core::FeatureScaling::VoltageSquaredFrequency;

  std::cout << "building corpus for " << sim::to_string(model) << "...\n";
  const core::Dataset ds = core::build_dataset(model);
  const core::UnifiedModel fitted = core::UnifiedModel::fit(ds, target, opt);
  const core::Evaluation eval = core::evaluate(fitted, ds);

  std::cout << "adjusted R^2 " << format_double(fitted.adjusted_r2(), 3)
            << ", mean |error| " << format_double(eval.mape(), 1) << "%\n";
  AsciiTable table({"counter", "class", "coefficient", "cum. adj R^2"});
  for (const core::SelectedVariable& v : fitted.variables()) {
    table.add_row({v.counter, profiler::to_string(v.klass),
                   format_double(v.coefficient, 6),
                   format_double(v.cumulative_adjusted_r2, 3)});
  }
  table.print(std::cout);

  if (!out_file.empty()) {
    std::ofstream out(out_file);
    if (!out) throw Error("cannot open " + out_file);
    core::serialize_model(fitted, out);
    std::cout << "model written to " << out_file << "\n";
  }
  return 0;
}

int cmd_predict(cli::Flags& flags) {
  const std::vector<std::string> args = flags.parse(2, 3);
  const workload::BenchmarkDef& bench = workload::find_benchmark(args[1]);
  const std::size_t largest = bench.size_count - 1;
  const std::optional<std::uint64_t> size =
      args.size() > 2 ? cli::to_integer(args[2], 0, largest) : largest;
  if (!size) {
    throw cli::UsageError("size-index expects " +
                          cli::integer_range(0, largest) + ", got '" +
                          args[2] + "'");
  }
  std::ifstream in(args[0]);
  if (!in) throw Error("cannot open " + args[0]);
  const core::UnifiedModel model = core::deserialize_model(in);

  core::MeasurementRunner runner(model.gpu());
  profiler::CudaProfiler prof;
  runner.gpu().set_frequency_pair(sim::kDefaultPair);
  const profiler::ProfileResult counters =
      prof.collect(runner.gpu(), runner.prepared_profile(bench, *size));

  const std::string unit =
      model.target() == core::TargetKind::Power ? "W" : "s";
  AsciiTable table({"pair", "predicted " + unit, "measured " + unit});
  for (sim::FrequencyPair pair : dvfs::configurable_pairs(model.gpu())) {
    const core::Measurement m = runner.measure(bench, *size, pair);
    const double actual = model.target() == core::TargetKind::Power
                              ? m.avg_power.as_watts()
                              : m.exec_time.as_seconds();
    table.add_row({sim::to_string(pair),
                   format_double(model.predict(counters, pair), 2),
                   format_double(actual, 2)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_governor(cli::Flags& flags) {
  const std::vector<std::string> args = flags.parse(2, SIZE_MAX);
  const sim::GpuModel model = sim::parse_gpu(args[0]);

  std::cout << "training models for " << sim::to_string(model) << "...\n";
  ModelPair models = fit_model_pair(model);
  core::DvfsGovernor governor(std::move(models.power), std::move(models.perf));

  core::MeasurementRunner runner(model);
  profiler::CudaProfiler prof;

  AsciiTable table({"phase", "pair", "energy J", "default J", "saving %"});
  for (std::size_t i = 1; i < args.size(); ++i) {
    const workload::BenchmarkDef& bench = workload::find_benchmark(args[i]);
    const sim::RunProfile profile =
        runner.prepared_profile(bench, bench.size_count - 1);
    runner.gpu().set_frequency_pair(governor.current_pair());
    const profiler::ProfileResult counters = prof.collect(runner.gpu(), profile);
    const sim::FrequencyPair pick = governor.decide(counters);
    const core::Measurement chosen = runner.measure_profile(profile, pick);
    const core::Measurement def =
        runner.measure_profile(profile, sim::kDefaultPair);
    table.add_row({args[i], sim::to_string(pick),
                   format_double(chosen.energy.as_joules(), 1),
                   format_double(def.energy.as_joules(), 1),
                   format_double((1.0 - chosen.energy / def.energy) * 100, 1)});
  }
  table.print(std::cout);
  std::cout << governor.switch_count() << " P-state switches over "
            << governor.decision_count() << " phases\n";
  return 0;
}

int cmd_govern(cli::Flags& flags) {
  governor::LoopOptions opt;
  workload::PhaseScheduleOptions sched;
  double cap_watts = opt.governor.power_cap.as_watts();
  bool no_baselines = false;
  const std::map<std::string, core::GovernorPolicy> policies = {
      {"energy", core::GovernorPolicy::MinimumEnergy},
      {"edp", core::GovernorPolicy::MinimumEdp},
      {"perf-cap", core::GovernorPolicy::PowerCap}};
  flags
      .value("--policy", "one of energy|edp|perf-cap",
             [&](const std::string& p) {
               const auto it = policies.find(p);
               if (it != policies.end()) opt.governor.policy = it->second;
               return it != policies.end();
             })
      .count("--phases", sched.phases, 0, kMaxTrace)
      .count("--seed", sched.seed, 0, cli::kAnyU64)
      .number("--cap", cap_watts, 0.0, 10000.0)
      .number("--max-slowdown", opt.governor.max_slowdown, 1.0, 100.0, true)
      .count("--window", opt.governor.refit.window, 1, 1 << 20)
      .count("--refit", opt.governor.refit_interval, 0, cli::kAnyU64)
      .toggle("--no-baselines", no_baselines);
  const sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  opt.governor.power_cap = Power::watts(cap_watts);
  opt.measure_baselines = !no_baselines;

  std::cout << "training models for " << sim::to_string(model) << "...\n";
  ModelPair models = fit_model_pair(model);
  governor::GovernorLoop loop(model, models.dataset, std::move(models.power),
                              std::move(models.perf), opt);

  const std::vector<workload::Phase> phases = workload::phase_schedule(
      sched, profiler::CudaProfiler::unsupported_benchmarks());

  const governor::LoopResult result = loop.run(phases);

  AsciiTable table(opt.measure_baselines
                       ? std::vector<std::string>{"phase", "scale", "pair",
                                                  "energy J", "default J",
                                                  "oracle J", "saving %"}
                       : std::vector<std::string>{"phase", "scale", "pair",
                                                  "energy J"});
  for (const governor::PhaseOutcome& o : result.phases) {
    std::vector<std::string> row = {
        o.phase.benchmark, format_double(o.phase.scale, 2),
        sim::to_string(o.pair), format_double(o.measured.energy.as_joules(), 1)};
    if (opt.measure_baselines) {
      row.push_back(format_double(o.default_energy_joules, 1));
      row.push_back(format_double(o.oracle_energy_joules, 1));
      row.push_back(format_double(
          (1.0 - o.measured.energy.as_joules() /
                     std::max(1e-12, o.default_energy_joules)) * 100.0, 1));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "policy " << core::to_string(opt.governor.policy) << ": "
            << format_double(result.governed_energy_joules, 0) << " J governed";
  if (opt.measure_baselines) {
    std::cout << " vs " << format_double(result.default_energy_joules, 0)
              << " J static (H-H), oracle "
              << format_double(result.oracle_energy_joules, 0) << " J ("
              << format_double((1.0 - result.governed_energy_joules /
                                    std::max(1e-12,
                                             result.default_energy_joules)) *
                                   100.0, 1)
              << "% saved)";
  }
  std::cout << "\n" << result.switches << " switches, " << result.reboots
            << " reboots, " << result.refits << " refits over "
            << result.phases.size() << " phases\n";
  return 0;
}

int cmd_serve(cli::Flags& flags) {
  serve::ServerOptions bopt;
  cluster::FleetOptions fopt;
  fopt.backends = 0;  // --cluster 0: one server, no fleet
  cluster::RouterOptions ropt;
  net::ServerOptions nopt;
  bool supervise = false;
  double duration = 0.0;
  flags.count("--listen", nopt.port, 0, 65535)
      .count("--workers", bopt.worker_threads, 1, kMaxThreads)
      .count("--cache", bopt.cache_capacity, 0, kMaxCache)
      .number("--duration", duration, 0.0, kMaxSeconds)
      .count("--cluster", fopt.backends, 0, kMaxNodes)
      .count("--replicas", ropt.replicas, 1, kMaxNodes)
      .toggle("--supervise", supervise)
      .toggle("--admission", ropt.admission_control);
  const sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  if (!flags.given("--listen")) {
    throw cli::UsageError("serve needs --listen PORT");
  }
  if ((supervise || ropt.admission_control) && fopt.backends == 0) {
    throw cli::UsageError("--supervise and --admission need --cluster N");
  }

  std::cout << "fitting models for " << sim::to_string(model)
            << " (extended form)...\n";
  ModelPair models = fit_model_pair(model);

  // Single node or a routed fleet, behind the same TCP front.
  std::unique_ptr<serve::PredictionServer> backend;
  std::unique_ptr<cluster::LocalFleet> fleet;
  net::ServeBridge bridge;
  if (fopt.backends > 0) {
    fopt.server = bopt;
    fleet = std::make_unique<cluster::LocalFleet>(
        std::move(models.power), std::move(models.perf), fopt, ropt);
    bridge = fleet->bridge();
    std::cout << "cluster: " << fopt.backends << " in-process backends, "
              << ropt.replicas << " replicas per key"
              << (supervise ? ", supervised" : "")
              << (ropt.admission_control ? ", admission control" : "")
              << "\n";
  } else {
    backend = std::make_unique<serve::PredictionServer>(bopt);
    backend->load_models(std::move(models.power), std::move(models.perf));
    bridge = net::bridge_prediction_server(*backend);
  }

  std::unique_ptr<cluster::Supervisor> supervisor;
  if (fleet && supervise) {
    supervisor = std::make_unique<cluster::Supervisor>(*fleet);
  }

  net::Server server(std::move(bridge), nopt);
  std::cout << "listening on 127.0.0.1:" << server.port() << "\n"
            << std::flush;

  // Ctrl-C / SIGTERM drain and report instead of dying mid-loop; the
  // handler is installed without SA_RESTART so the stdin getline below
  // returns on the signal.
  install_shutdown_handler();
  if (duration > 0.0) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(duration));
    while (!shutdown_requested() &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } else {
    // Foreground service: run until stdin closes (Ctrl-D, or the driving
    // script closing the pipe) or a shutdown signal arrives.
    std::cout << "serving until stdin closes (--duration S to time-box)\n";
    std::string line;
    while (!shutdown_requested() && std::getline(std::cin, line)) {
    }
  }
  if (shutdown_requested()) std::cout << "shutdown signal: draining\n";

  if (supervisor) supervisor->stop();
  server.stop();
  const net::ServerStats ns = server.stats();
  if (fleet) {
    const cluster::RouterStats rs = fleet->router().stats();
    fleet->stop();
    std::cout << rs.requests << " routed (" << rs.hedges_fired << " hedges, "
              << rs.hedge_wins << " hedge wins, " << rs.failovers
              << " failovers, " << rs.breaker_opens << " breaker opens, "
              << rs.drains << " drains, " << rs.admission_shed
              << " admission sheds)\n";
    if (supervisor) {
      const cluster::SupervisorStats ss = supervisor->stats();
      std::cout << "supervisor: " << ss.probes << " probes, " << ss.restarts
                << " restarts, " << ss.budget_exhausted
                << " budget exhaustions\n";
    }
  } else {
    backend->shutdown();
    backend->metrics().print(std::cout);
  }
  std::cout << ns.connections_accepted << " connections ("
            << ns.connections_refused << " refused), " << ns.frames_received
            << " frames in / " << ns.frames_sent << " out, "
            << ns.requests_bridged << " requests bridged, "
            << ns.protocol_errors << " protocol errors\n";
  return 0;
}

int cmd_serve_bench(cli::Flags& flags) {
  serve::ServerOptions sopt;
  serve::TraceOptions topt = {.request_count = 5000};
  std::size_t clients = 4;
  bool all_sizes = false, csv = false;
  std::string power_path, perf_path;
  flags.count("--requests", topt.request_count, 1, kMaxTrace)
      .count("--workers", sopt.worker_threads, 1, kMaxThreads)
      .count("--clients", clients, 1, kMaxThreads)
      .count("--cache", sopt.cache_capacity, 0, kMaxCache)
      .number("--jitter", topt.counter_jitter, 0.0, 1.0)
      .toggle("--all-sizes", all_sizes)
      .toggle("--csv", csv)
      .text("--power-model", power_path)
      .text("--perf-model", perf_path);
  sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  if (power_path.empty() != perf_path.empty()) {
    throw cli::UsageError("--power-model and --perf-model go together");
  }
  // Ctrl-C drains the replay: clients launch nothing new, the partial
  // report prints, the obs artifacts flush, and the exit code is 0.
  install_shutdown_handler();

  serve::PredictionServer server(sopt);
  if (!power_path.empty()) {
    // The trace must target the board the files were fitted for, which
    // wins over the positional one.
    model = server.load_model_files(power_path, perf_path);
    std::cout << "loaded models for " << sim::to_string(model) << " from "
              << power_path << " + " << perf_path << "\n";
  } else {
    std::cout << "fitting models for " << sim::to_string(model)
              << " (extended form)...\n";
    ModelPair models = fit_model_pair(model);
    server.load_models(std::move(models.power), std::move(models.perf));
  }

  const serve::PhaseCorpus corpus =
      serve::build_phase_corpus(model, all_sizes);
  const std::vector<serve::Request> trace = serve::synthetic_trace(corpus, topt);
  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << clients << " closed-loop clients, "
            << sopt.worker_threads << " workers\n";

  const serve::ReplayResult replayed = serve::replay(
      trace,
      [&server](const serve::Request& r) { return server.submit(r).get(); },
      {clients});

  server.shutdown();
  const serve::ServerMetrics metrics = server.metrics();
  metrics.print(std::cout);
  if (replayed.failed > 0) {
    std::cout << replayed.failed << " requests failed\n";
  }
  const double elapsed = replayed.elapsed_seconds;
  std::cout << "replayed " << trace.size() << " requests in "
            << format_double(elapsed, 3) << " s = "
            << format_double(static_cast<double>(trace.size()) / elapsed, 0)
            << " req/s\n";
  if (csv) {
    std::cout << "BEGIN-CSV serve_metrics\n";
    metrics.write_csv(std::cout);
    std::cout << "END-CSV\n";
  }
  if (shutdown_requested()) std::cout << "interrupted: partial replay\n";
  return 0;
}

struct LoadgenOptions {
  std::string host;
  std::uint16_t port = 0;
  serve::TraceOptions trace = {.request_count = 2000};
  serve::ReplayOptions replay;  // workers = --connections
  cluster::RouterOptions router;  // --replicas --admission
  bool chaos = false;
  std::size_t cluster = 0;  // 0 = wire mode (--connect)
  std::string gpu = "gtx460";
  double drain_every_ms = 0.0;  // 0 = no drain scheduler
  bool rolling_restart = false;
  bool supervise = false;
  double deadline_ms = 0.0;  // 0 = no per-request deadline
};

void print_loop_shape(double open_loop_rate) {
  if (open_loop_rate > 0.0) {
    std::cout << "open loop at " << format_double(open_loop_rate, 0)
              << " req/s\n";
  } else {
    std::cout << "closed loop\n";
  }
}

/// One "status <name>" row per answered status, in name order.
void add_status_rows(AsciiTable& table, const serve::ReplayResult& r) {
  std::map<std::string, std::uint64_t> by_name;
  for (const auto& [status, count] : r.statuses) {
    by_name[serve::to_string(status)] = count;
  }
  for (const auto& [name, count] : by_name) {
    table.add_row({"status " + name, std::to_string(count)});
  }
}

void add_rate_rows(AsciiTable& table, const serve::ReplayResult& r) {
  table.add_row({"req/s", format_double(r.rps(), 0)});
  const std::pair<const char*, double> quantiles[] = {
      {"p50 us", 0.50}, {"p95 us", 0.95}, {"p99 us", 0.99}, {"p999 us", 0.999}};
  for (const auto& [label, q] : quantiles) {
    table.add_row(
        {label, format_double(serve::percentile(r.latencies, q) * 1e6, 1)});
  }
}

/// Self-hosted fleet mode: build models once, answer the whole trace from
/// a reference single-node server, then drive the routed fleet and demand
/// bit-identity for every successful response.
int loadgen_cluster(const LoadgenOptions& opt) {
  const sim::GpuModel board = sim::parse_gpu(opt.gpu);
  std::cout << "fitting models for " << sim::to_string(board)
            << " (extended form)...\n";
  const ModelPair models = fit_model_pair(board);

  const serve::PhaseCorpus corpus = serve::build_phase_corpus(board);
  serve::TraceOptions topt = opt.trace;
  // Govern is stateful (hysteresis across requests), so replicated serving
  // cannot promise bit-identity for it; the cluster trace sticks to the
  // pure endpoints.
  topt.govern_fraction = 0.0;
  std::vector<serve::Request> trace = serve::synthetic_trace(corpus, topt);
  const std::vector<serve::Response> truth =
      serve::reference_answers(trace, models.power, models.perf);

  // Deadlines are stamped after the ground truth is computed, so the
  // reference answers stay the pure, deadline-free responses the gate
  // compares against.
  if (opt.deadline_ms > 0.0) {
    for (serve::Request& r : trace) {
      r.deadline = Duration::milliseconds(opt.deadline_ms);
    }
  }

  fault::FaultInjector injector(fault::FaultPlan::cluster_profile(),
                                opt.trace.seed);
  cluster::FleetOptions fopt;
  fopt.backends = opt.cluster;
  if (opt.chaos) {
    fopt.wire = true;
    fopt.injector = &injector;
    use_chaos_retry(fopt.client);
  }
  cluster::RouterOptions ropt = opt.router;
  if (opt.chaos) ropt.injector = &injector;
  cluster::LocalFleet fleet(models.power, models.perf, fopt, ropt);

  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << opt.cluster << " backends ("
            << (opt.chaos ? "wire" : "in-process") << "), " << ropt.replicas
            << " replicas per key, " << opt.replay.workers << " workers, ";
  print_loop_shape(opt.replay.rate);

  // The supervisor owns recovery under --supervise: the reaper only
  // kills, and the probe → backoff → restart loop brings nodes back.
  std::unique_ptr<cluster::Supervisor> supervisor;
  if (opt.supervise) {
    cluster::SupervisorOptions sup;
    sup.seed = opt.trace.seed;
    if (opt.chaos) sup.injector = &injector;
    supervisor = std::make_unique<cluster::Supervisor>(fleet, sup);
  }
  cluster::DisturberOptions dopt;
  dopt.seed = opt.trace.seed;
  dopt.kills = opt.chaos;
  dopt.drain_every = Duration::milliseconds(opt.drain_every_ms);
  dopt.rolling = opt.rolling_restart;
  dopt.supervised = opt.supervise;
  cluster::FleetDisturber disturber(fleet, dopt);

  // The gate: every *successful* routed answer must equal the single-node
  // ground truth bit for bit.  Typed failures (a replica set momentarily
  // dead under chaos) show up as non-Ok status counts — they are
  // refusals, never wrong answers.
  const serve::ReplayResult result = serve::replay(
      trace,
      [&fleet](const serve::Request& r) { return fleet.router().predict(r); },
      opt.replay, truth);
  const cluster::DisturbReport disturbed = disturber.stop();
  if (supervisor) supervisor->stop();

  AsciiTable table({"metric", "value"});
  table.add_row({"answered", std::to_string(result.answered())});
  add_status_rows(table, result);
  table.add_row({"divergent", std::to_string(result.divergent)});
  table.add_row({"failed", std::to_string(result.failed)});
  add_rate_rows(table, result);
  table.print(std::cout);

  const cluster::RouterStats rs = fleet.router().stats();
  std::cout << rs.requests << " routed, " << rs.hedges_fired << " hedges ("
            << rs.hedge_wins << " wins, " << rs.hedges_abandoned
            << " abandoned), " << rs.failovers << " failovers, "
            << rs.breaker_opens << " breaker opens, " << rs.breaker_rejections
            << " breaker rejections, " << rs.exhausted << " exhausted\n";
  if (rs.drains > 0 || ropt.admission_control) {
    std::cout << rs.drains << " drains (" << rs.drain_handed_off
              << " requests handed off), " << rs.admission_shed
              << " shed by admission\n";
  }
  // A refused drain left the ring's last member serving.
  if (opt.drain_every_ms > 0.0) {
    std::cout << "drain scheduler: " << disturbed.drains
              << " planned drains, " << disturbed.lossy_drains
              << " with loss, " << disturbed.refused_drains << " refused\n";
  }
  if (opt.rolling_restart) {
    std::cout << "rolling restarts: " << disturbed.sweeps << " full sweeps, "
              << disturbed.lossy_sweeps << " with loss, "
              << disturbed.refused_sweep_drains << " node drains refused\n";
  }
  if (supervisor) {
    const cluster::SupervisorStats ss = supervisor->stats();
    std::cout << "supervisor: " << ss.probes << " probes ("
              << ss.probe_failures << " failed, " << ss.probes_lost
              << " injected losses), " << ss.restarts << " restarts, "
              << ss.budget_exhausted << " budget exhaustions\n";
  }
  if (opt.chaos) {
    std::cout << "chaos: " << disturbed.kills << " backend kills, "
              << injector.total_fires() << "/" << injector.total_checks()
              << " site checks fired\n";
  }
  // The full disturbance history, one event per line: two same-seed runs
  // emit identical logs (diff them to prove a repro).
  if (!disturbed.event_log.empty()) {
    std::cout << "event log (seed " << opt.trace.seed << "):\n"
              << disturbed.event_log;
  }
  fleet.stop();

  if (result.divergent != 0) {
    std::cerr << "FAIL: " << result.divergent
              << " successful responses diverged from single-node ground"
                 " truth\n";
    return 1;
  }
  if (result.failed != 0) {
    std::cerr << "FAIL: " << result.failed << " routed calls threw\n";
    return 1;
  }
  if (shutdown_requested()) {
    std::cout << "interrupted: partial run, " << result.ok()
              << " successful responses (all bit-identical)\n";
    return 0;
  }
  if (result.ok() == 0) {
    std::cerr << "FAIL: no successful responses\n";
    return 1;
  }
  std::cout << "bit-identity gate: " << result.ok() << "/" << result.ok()
            << " successful responses identical to single-node ground"
               " truth\n";
  return 0;
}

/// Wire mode: replay a trace for the first board a running
/// `gppm serve --listen` announces.
int loadgen_wire(const LoadgenOptions& opt) {
  fault::FaultInjector injector(fault::FaultPlan::net_profile(),
                                opt.trace.seed);
  net::ClientOptions copt;
  copt.host = opt.host;
  copt.port = opt.port;
  copt.pool_size = opt.replay.workers;
  if (opt.chaos) use_chaos_retry(copt);
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
  const std::vector<serve::Request> trace =
      serve::synthetic_trace(corpus, opt.trace);

  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << opt.replay.workers << " connections, ";
  print_loop_shape(opt.replay.rate);

  // A call that throws (retries exhausted under chaos, or the server went
  // away) is counted, not fatal: the report shows partial failure.
  const serve::ReplayResult result = serve::replay(
      trace,
      [&client](const serve::Request& r) { return client.predict(r); },
      opt.replay);

  AsciiTable table({"metric", "value"});
  table.add_row({"answered", std::to_string(result.answered())});
  table.add_row({"transport failures", std::to_string(result.failed)});
  add_status_rows(table, result);
  add_rate_rows(table, result);
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
  return result.failed == trace.size() ? 1 : 0;
}

int cmd_loadgen(cli::Flags& flags) {
  LoadgenOptions opt;
  flags
      .value("--connect", "HOST:PORT with PORT in [1, 65535]",
             [&opt](const std::string& value) {
               const std::size_t colon = value.rfind(':');
               if (colon == std::string::npos || colon == 0) return false;
               const std::optional<std::uint64_t> port =
                   cli::to_integer(value.substr(colon + 1), 1, 65535);
               if (!port) return false;
               opt.host = value.substr(0, colon);
               opt.port = static_cast<std::uint16_t>(*port);
               return true;
             })
      .count("--cluster", opt.cluster, 0, kMaxNodes)
      .count("--replicas", opt.router.replicas, 1, kMaxNodes)
      .text("--gpu", opt.gpu)
      .count("--requests", opt.trace.request_count, 1, kMaxTrace)
      .count("--connections", opt.replay.workers, 1, kMaxThreads)
      .number("--open-loop", opt.replay.rate, kMinRate, kMaxRate, true)
      .number("--jitter", opt.trace.counter_jitter, 0.0, 1.0)
      .toggle("--chaos", opt.chaos)
      .count("--seed", opt.trace.seed, 0, cli::kAnyU64)
      .number("--drain-every", opt.drain_every_ms, 0.0, kMaxSeconds * 1e3)
      .toggle("--rolling-restart", opt.rolling_restart)
      .toggle("--supervise", opt.supervise)
      .toggle("--admission", opt.router.admission_control)
      .number("--deadline-ms", opt.deadline_ms, 0.0, kMaxSeconds * 1e3);
  flags.parse();
  const bool fleet = opt.cluster > 0;
  if (flags.given("--connect") == fleet) {
    throw cli::UsageError("loadgen needs one of --connect HOST:PORT and "
                          "--cluster N");
  }
  if (!fleet && (opt.drain_every_ms > 0.0 || opt.rolling_restart ||
                 opt.supervise || opt.router.admission_control ||
                 opt.deadline_ms > 0.0)) {
    throw cli::UsageError("--drain-every, --rolling-restart, --supervise, "
                          "--admission and --deadline-ms need --cluster N");
  }
  // Ctrl-C drains the run: workers start nothing new, the partial report
  // prints, the obs artifacts flush, and the exit code is 0 (divergence
  // still fails).
  install_shutdown_handler();
  return fleet ? loadgen_cluster(opt) : loadgen_wire(opt);
}

int cmd_chaos(cli::Flags& flags) {
  std::string profile_path;
  std::uint64_t seed = 7;
  std::size_t benchmark_limit = 0;
  flags.text("--fault-profile", profile_path)
      .count("--seed", seed, 0, cli::kAnyU64)
      .count("--benchmarks", benchmark_limit, 0, cli::kAnyU64);
  const sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  fault::FaultPlan plan = fault::FaultPlan::default_profile();
  if (!profile_path.empty()) {
    std::ifstream in(profile_path);
    if (!in) throw Error("cannot open " + profile_path);
    plan = fault::FaultPlan::parse(in);
  }

  std::cout << "fault profile:\n" << plan.to_string();
  const core::ChaosReport report =
      core::chaos_characterization(model, plan, seed, benchmark_limit);

  AsciiTable table({"benchmark", "covered", "fault-free best", "chaos best",
                    "verdict"});
  for (const core::ChaosBenchmarkRow& row : report.rows) {
    table.add_row({row.benchmark,
                   std::to_string(row.covered) + "/" +
                       std::to_string(row.total),
                   sim::to_string(row.best_fault_free),
                   row.has_chaos_best ? sim::to_string(row.best_chaos) : "-",
                   !row.comparable ? "incomparable"
                   : row.divergent ? "DIVERGENT"
                                   : "match"});
  }
  table.print(std::cout);
  std::cout << "coverage " << report.cells_covered << "/" << report.cells_total
            << " cells (" << format_double(report.coverage() * 100.0, 2)
            << "%), " << report.divergent_count() << " divergent of "
            << report.comparable_count() << " comparable benchmarks, "
            << report.fault_fires << "/" << report.fault_checks
            << " site checks fired\n";
  return report.divergent_count() == 0 ? 0 : 1;
}

int cmd_mix(cli::Flags& flags) {
  mix::MixScheduleOptions sched = {.mixes = 8};
  bool fit = false;
  flags.count("--mixes", sched.mixes, 1, kMaxTrace)
      .count("--degree", sched.degree, mix::kMinMixDegree,
             mix::kMaxMixDegree)
      .count("--seed", sched.seed, 0, cli::kAnyU64)
      .toggle("--fit", fit);
  const sim::GpuModel model = sim::parse_gpu(flags.parse(1)[0]);
  const std::vector<mix::ScheduledMix> schedule = mix::mix_schedule(
      sched, profiler::CudaProfiler::unsupported_benchmarks());
  mix::MixEngine engine(model, sched.seed);

  AsciiTable table({"mix", "member", "share", "solo s", "contended s",
                    "slowdown", "co-bw"});
  double worst_slowdown = 1.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const mix::MixProfile profile = mix::make_mix_profile(schedule[i], i);
    const mix::MixExecution run = engine.execute(profile);
    for (const mix::MemberExecution& m : run.members) {
      worst_slowdown = std::max(worst_slowdown, m.slowdown);
      table.add_row({profile.name, m.benchmark,
                     format_double(m.sm_share, 2),
                     format_double(m.solo_time.as_seconds(), 4),
                     format_double(m.contended_time.as_seconds(), 4),
                     format_double(m.slowdown, 2),
                     format_double(m.co_bw_pressure, 2)});
    }
    table.add_row({profile.name, "(board)", "1.00",
                   format_double(run.makespan.as_seconds(), 4) + " makespan",
                   format_double(run.avg_power.as_watts(), 1) + " W",
                   format_double(run.contention_factor, 2) + " cf", ""});
  }
  table.print(std::cout);
  std::cout << schedule.size() << " mixes of degree " << sched.degree << " on "
            << sim::to_string(model) << ", worst member slowdown "
            << format_double(worst_slowdown, 2) << "x\n";

  if (!fit) return 0;
  std::cout << "building the interference corpus (32 mixes) and fitting "
               "solo + mix families...\n";
  mix::MixCorpusOptions copt;
  copt.mixes = 32;
  copt.degree = sched.degree;
  copt.seed = sched.seed;
  const mix::MixCorpus corpus = mix::build_mix_corpus(model, copt);
  core::ModelOptions mopt;
  mopt.max_variables = 5;
  const mix::MixModelSet models = mix::fit_mix_models(corpus, mopt);
  const mix::MixEvaluation ev = mix::evaluate_mix_models(models, corpus);
  AsciiTable gate({"family", "held-out wape %", "held-out mape %"});
  gate.add_row({"solo time on contended", format_double(ev.solo_time_wape, 2),
                format_double(ev.solo_time_mape, 2)});
  gate.add_row({"mix time", format_double(ev.mix_time_wape, 2),
                format_double(ev.mix_time_mape, 2)});
  gate.add_row({"mix power", format_double(ev.power_wape, 2),
                format_double(ev.power_mape, 2)});
  gate.print(std::cout);
  std::cout << "solo signed bias " << format_double(ev.solo_signed_bias, 3)
            << " (negative = underpredicts contention), gate "
            << (ev.passes() ? "PASS" : "FAIL") << "\n";
  return ev.passes() ? 0 : 1;
}

int cmd_obs_demo(cli::Flags& flags) {
  flags.parse();
  // A small pass through every instrumented layer, so the obs wiring can be
  // eyeballed end to end: a resilient sweep under a light fault plan (sweep.*
  // counters + spans), a leave-one-benchmark-out cross-validation whose
  // folds run forward selection over the compute pool (select.* and
  // parallel.*; one selection alone runs serially), and a burst against
  // the prediction server (serve.* via the metrics bridge).
  gppm::obs::set_enabled(true);

  std::cout << "[1/3] resilient sweep under the default fault profile...\n";
  fault::FaultInjector injector(fault::FaultPlan::default_profile(), 7);
  core::RunnerOptions ropt;
  ropt.injector = &injector;
  core::MeasurementRunner runner(sim::GpuModel::GTX460, ropt);
  const workload::BenchmarkDef& bench = workload::find_benchmark("gaussian");
  const core::Sweep sweep = core::sweep_pairs_resilient(runner, bench, 0);
  std::cout << "  " << sweep.results.size() << "/" << sweep.total_cells()
            << " cells covered\n";

  std::cout << "[2/3] cross-validated forward selection on the GTX 460 "
               "corpus (folds in parallel)...\n";
  const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  const core::Evaluation cv =
      core::cross_validate(ds, core::TargetKind::Power);
  std::cout << "  " << cv.rows.size() << " held-out predictions, MAPE "
            << format_double(cv.mape(), 2) << "%\n";

  std::cout << "[3/3] prediction-server burst...\n";
  serve::PredictionServer server;
  server.load_models(core::UnifiedModel::fit(ds, core::TargetKind::Power),
                     core::UnifiedModel::fit(ds, core::TargetKind::ExecTime));
  std::vector<std::future<serve::Response>> pending;
  for (std::size_t i = 0; i < 64; ++i) {
    serve::Request req;
    req.kind = serve::RequestKind::Predict;
    req.gpu = sim::GpuModel::GTX460;
    req.counters = ds.samples[i % ds.samples.size()].counters;
    req.pair = sim::kDefaultPair;
    pending.push_back(server.submit(std::move(req)));
  }
  for (auto& f : pending) f.get();
  server.shutdown();
  server.metrics().print(std::cout);

  obs::metrics_table(obs::Registry::instance().snapshot()).print(std::cout);
  std::cout << obs::span_snapshot().size() << " spans buffered ("
            << obs::spans_dropped() << " dropped)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, int (*)(cli::Flags&)> commands = {
      {"specs", cmd_specs}, {"pairs", cmd_pairs}, {"counters", cmd_counters},
      {"trace", cmd_trace}, {"benchmarks", cmd_benchmarks},
      {"sweep", cmd_sweep}, {"fit", cmd_fit}, {"predict", cmd_predict},
      {"governor", cmd_governor}, {"govern", cmd_govern},
      {"serve", cmd_serve}, {"serve-bench", cmd_serve_bench},
      {"loadgen", cmd_loadgen}, {"chaos", cmd_chaos}, {"mix", cmd_mix},
      {"obs-demo", cmd_obs_demo}};
  // Every command takes the observability flags: either one enables
  // gppm::obs once the command line has parsed, and the requested
  // artifacts flush after the command finishes (also on a nonzero exit, so
  // a divergent chaos run still leaves its trace behind).
  std::string trace_out;
  std::string metrics_out;
  try {
    if (argc < 2) throw cli::UsageError("missing command");
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      throw cli::HelpRequested{};
    }
    const auto command = commands.find(cmd);
    if (command == commands.end()) {
      throw cli::UsageError("unknown command '" + cmd + "'");
    }
    cli::Flags flags({argv + 2, argv + argc}, [&] {
      if (!trace_out.empty() || !metrics_out.empty()) obs::set_enabled(true);
    });
    flags.text("--trace-out", trace_out).text("--metrics-out", metrics_out);
    const int rc = command->second(flags);
    if (!trace_out.empty()) {
      obs::write_trace_file(trace_out);
      std::cout << "trace written to " << trace_out << " ("
                << obs::span_snapshot().size() << " spans, "
                << obs::spans_dropped() << " dropped)\n";
    }
    if (!metrics_out.empty()) {
      obs::write_metrics_file(metrics_out);
      std::cout << "metrics written to " << metrics_out << "\n";
    }
    return rc;
  } catch (const cli::HelpRequested&) {
    return usage(std::cout, 0);
  } catch (const cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
