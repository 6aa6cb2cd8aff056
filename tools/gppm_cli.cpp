// gppm command-line interface.
//
// Everything the library offers, driveable from a shell:
//
//   gppm specs                          TABLE I device registry
//   gppm pairs <gpu>                    configurable pairs of a board
//   gppm benchmarks                     the 37-program suite
//   gppm sweep <gpu> <benchmark>        per-pair measurement sweep
//   gppm fit <gpu> <power|exectime> [--out FILE] [--v2f] [--baseline]
//                                       build the 114-sample corpus, fit a
//                                       unified model, optionally save it
//   gppm predict <model-file> <benchmark> [size]
//                                       load a model, profile the workload,
//                                       predict every configurable pair
//   gppm governor <gpu> <bench> [bench...]
//                                       run the phase-level DVFS governor
//   gppm govern <gpu> [options]         run the *online* closed-loop
//                                       governor over a drifting phase
//                                       schedule: profile -> decide ->
//                                       apply through the VBIOS controller
//                                       -> measure -> refit online
//   gppm serve <gpu> --listen PORT      put the prediction server on the
//                                       wire (gppm::net RPC; port 0 picks
//                                       an ephemeral port, printed on start)
//   gppm serve-bench <gpu> [options]    replay a synthetic trace against the
//                                       concurrent prediction server (fitted
//                                       in-process or loaded from files)
//   gppm loadgen --connect HOST:PORT [options]
//                                       replay a synthetic trace against a
//                                       running `gppm serve --listen`
//   gppm loadgen --cluster N [options]  replay one through a self-hosted
//                                       routed fleet, optionally under
//                                       seeded chaos and reconfiguration;
//                                       exit 1 on any answer that is not
//                                       bit-identical to one server's
//   gppm chaos <gpu> [options]          characterize under injected
//                                       instrument faults; report coverage
//                                       and divergence vs the fault-free run
//   gppm mix <gpu> [options]            co-schedule kernel mixes on one
//                                       board: per-member slowdowns and
//                                       bandwidth pressure, and with --fit
//                                       the interference-aware model gate
//                                       (solo vs mix held-out error)
//   gppm obs-demo                       exercise every instrumented layer
//                                       and print the obs metrics table
//
// Any command additionally accepts --trace-out=FILE and --metrics-out=FILE:
// either flag enables the gppm::obs observability layer for the run and,
// on exit, writes the span buffer as Chrome trace_event JSON
// (chrome://tracing / Perfetto loadable) and the metrics registry as CSV.
//
// GPU names: gtx285, gtx460, gtx480, gtx680.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
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

using namespace gppm;

namespace {

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

int usage() { return usage(std::cerr, 2); }

int cmd_specs() {
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

int cmd_pairs(const std::string& gpu) {
  const sim::GpuModel model = sim::parse_gpu(gpu);
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

int cmd_counters(const std::string& gpu) {
  const sim::GpuModel model = sim::parse_gpu(gpu);
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

int cmd_trace(const std::string& which) {
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

int cmd_benchmarks() {
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

int cmd_sweep(const std::string& gpu, const std::string& bench_name) {
  const sim::GpuModel model = sim::parse_gpu(gpu);
  const workload::BenchmarkDef& bench = workload::find_benchmark(bench_name);
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

int cmd_fit(int argc, char** argv) {
  // gppm fit <gpu> <target> [--out FILE] [--v2f] [--baseline]
  if (argc < 4) return usage();
  const sim::GpuModel model = sim::parse_gpu(argv[2]);
  const std::string target_name = argv[3];
  if (target_name != "power" && target_name != "exectime") return usage();
  const core::TargetKind target = target_name == "power"
                                      ? core::TargetKind::Power
                                      : core::TargetKind::ExecTime;
  core::ModelOptions opt;
  std::string out_file;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_file = argv[++i];
    } else if (arg == "--v2f") {
      opt.scaling = core::FeatureScaling::VoltageSquaredFrequency;
    } else if (arg == "--baseline") {
      opt.include_baseline_terms = true;
    } else {
      return usage();
    }
  }

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

int cmd_predict(int argc, char** argv) {
  // gppm predict <model-file> <benchmark> [size]
  if (argc < 4) return usage();
  std::ifstream in(argv[2]);
  if (!in) throw Error(std::string("cannot open ") + argv[2]);
  const core::UnifiedModel model = core::deserialize_model(in);
  const workload::BenchmarkDef& bench = workload::find_benchmark(argv[3]);
  const std::size_t size = argc > 4
                               ? static_cast<std::size_t>(std::stoul(argv[4]))
                               : bench.size_count - 1;

  core::MeasurementRunner runner(model.gpu());
  profiler::CudaProfiler prof;
  runner.gpu().set_frequency_pair(sim::kDefaultPair);
  const profiler::ProfileResult counters =
      prof.collect(runner.gpu(), runner.prepared_profile(bench, size));

  const std::string unit =
      model.target() == core::TargetKind::Power ? "W" : "s";
  AsciiTable table({"pair", "predicted " + unit, "measured " + unit});
  for (sim::FrequencyPair pair : dvfs::configurable_pairs(model.gpu())) {
    const core::Measurement m = runner.measure(bench, size, pair);
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

int cmd_governor(int argc, char** argv) {
  // gppm governor <gpu> <bench> [bench...]
  if (argc < 4) return usage();
  const sim::GpuModel model = sim::parse_gpu(argv[2]);

  std::cout << "training models for " << sim::to_string(model) << "...\n";
  const core::Dataset ds = core::build_dataset(model);
  core::DvfsGovernor governor(
      core::UnifiedModel::fit(ds, core::TargetKind::Power,
                              core::extended_power_options()),
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime));

  core::MeasurementRunner runner(model);
  profiler::CudaProfiler prof;

  AsciiTable table({"phase", "pair", "energy J", "default J", "saving %"});
  for (int i = 3; i < argc; ++i) {
    const workload::BenchmarkDef& bench = workload::find_benchmark(argv[i]);
    const sim::RunProfile profile =
        runner.prepared_profile(bench, bench.size_count - 1);
    runner.gpu().set_frequency_pair(governor.current_pair());
    const profiler::ProfileResult counters = prof.collect(runner.gpu(), profile);
    const sim::FrequencyPair pick = governor.decide(counters);
    const core::Measurement chosen = runner.measure_profile(profile, pick);
    const core::Measurement def =
        runner.measure_profile(profile, sim::kDefaultPair);
    table.add_row({argv[i], sim::to_string(pick),
                   format_double(chosen.energy.as_joules(), 1),
                   format_double(def.energy.as_joules(), 1),
                   format_double((1.0 - chosen.energy / def.energy) * 100, 1)});
  }
  table.print(std::cout);
  std::cout << governor.switch_count() << " P-state switches over "
            << governor.decision_count() << " phases\n";
  return 0;
}

int cmd_govern(int argc, char** argv) {
  // gppm govern <gpu> [--policy energy|edp|perf-cap] [--phases N]
  //             [--seed N] [--cap W] [--max-slowdown F] [--window N]
  //             [--refit N] [--no-baselines]
  if (argc < 3) return usage();
  const sim::GpuModel model = sim::parse_gpu(argv[2]);

  governor::LoopOptions opt;
  std::size_t phase_count = 24;
  std::uint64_t seed = 42;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--policy") {
      const std::string p = next();
      if (p == "energy") {
        opt.governor.policy = core::GovernorPolicy::MinimumEnergy;
      } else if (p == "edp") {
        opt.governor.policy = core::GovernorPolicy::MinimumEdp;
      } else if (p == "perf-cap") {
        opt.governor.policy = core::GovernorPolicy::PowerCap;
      } else {
        throw Error("unknown policy '" + p + "' (energy/edp/perf-cap)");
      }
    } else if (arg == "--phases") phase_count = std::stoul(next());
    else if (arg == "--seed") seed = std::stoull(next());
    else if (arg == "--cap") opt.governor.power_cap = Power::watts(std::stod(next()));
    else if (arg == "--max-slowdown") opt.governor.max_slowdown = std::stod(next());
    else if (arg == "--window") opt.governor.refit.window = std::stoul(next());
    else if (arg == "--refit") opt.governor.refit_interval = std::stoul(next());
    else if (arg == "--no-baselines") opt.measure_baselines = false;
    else return usage();
  }

  std::cout << "training models for " << sim::to_string(model) << "...\n";
  const core::Dataset ds = core::build_dataset(model);
  governor::GovernorLoop loop(
      model, ds,
      core::UnifiedModel::fit(ds, core::TargetKind::Power,
                              core::extended_power_options()),
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime), opt);

  workload::PhaseScheduleOptions sched;
  sched.phases = phase_count;
  sched.seed = seed;
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

int cmd_serve(int argc, char** argv) {
  // gppm serve <gpu> --listen PORT [--workers N] [--cache N] [--duration S]
  //                  [--cluster N [--replicas R] [--supervise]
  //                  [--admission]]
  if (argc < 3) return usage();
  const sim::GpuModel model = sim::parse_gpu(argv[2]);
  bool listen = false;
  std::uint16_t port = 0;
  std::size_t workers = 4, cache = 1 << 16;
  std::size_t cluster = 0, replicas = 2;
  bool supervise = false, admission = false;
  double duration = 0.0;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      listen = true;
      const unsigned long value = std::stoul(argv[++i]);
      if (value > 65535) throw Error("port out of range");
      port = static_cast<std::uint16_t>(value);
    } else if (arg == "--workers" && has_value) {
      workers = std::stoul(argv[++i]);
    } else if (arg == "--cache" && has_value) {
      cache = std::stoul(argv[++i]);
    } else if (arg == "--duration" && has_value) {
      duration = std::stod(argv[++i]);
    } else if (arg == "--cluster" && has_value) {
      cluster = std::stoul(argv[++i]);
    } else if (arg == "--replicas" && has_value) {
      replicas = std::stoul(argv[++i]);
    } else if (arg == "--supervise") {
      supervise = true;
    } else if (arg == "--admission") {
      admission = true;
    } else {
      return usage();
    }
  }
  if (!listen || workers == 0 || replicas == 0) return usage();
  if ((supervise || admission) && cluster == 0) return usage();

  std::cout << "fitting models for " << sim::to_string(model)
            << " (extended form)...\n";
  const core::Dataset ds = core::build_dataset(model);
  core::UnifiedModel power = core::UnifiedModel::fit(
      ds, core::TargetKind::Power, core::extended_power_options());
  core::UnifiedModel perf =
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);

  serve::ServerOptions bopt;
  bopt.worker_threads = workers;
  bopt.cache_capacity = cache;

  // Single node or a routed fleet, behind the same TCP front.
  std::unique_ptr<serve::PredictionServer> backend;
  std::unique_ptr<cluster::LocalFleet> fleet;
  net::ServeBridge bridge;
  if (cluster > 0) {
    cluster::FleetOptions fopt;
    fopt.backends = cluster;
    fopt.server = bopt;
    cluster::RouterOptions ropt;
    ropt.replicas = replicas;
    ropt.admission_control = admission;
    fleet = std::make_unique<cluster::LocalFleet>(std::move(power),
                                                  std::move(perf), fopt, ropt);
    bridge = fleet->bridge();
    std::cout << "cluster: " << cluster << " in-process backends, "
              << replicas << " replicas per key"
              << (supervise ? ", supervised" : "")
              << (admission ? ", admission control" : "") << "\n";
  } else {
    backend = std::make_unique<serve::PredictionServer>(bopt);
    backend->load_models(std::move(power), std::move(perf));
    bridge = net::bridge_prediction_server(*backend);
  }

  std::unique_ptr<cluster::Supervisor> supervisor;
  if (fleet && supervise) {
    supervisor = std::make_unique<cluster::Supervisor>(*fleet);
  }

  net::ServerOptions nopt;
  nopt.port = port;
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

int cmd_serve_bench(int argc, char** argv) {
  // gppm serve-bench <gpu> [--requests N] [--workers N] [--clients N]
  //                        [--cache N] [--jitter F] [--all-sizes] [--csv]
  //                        [--power-model FILE --perf-model FILE]
  if (argc < 3) return usage();
  sim::GpuModel model = sim::parse_gpu(argv[2]);
  std::size_t requests = 5000, workers = 4, clients = 4, cache = 1 << 16;
  double jitter = 0.0;
  bool all_sizes = false, csv = false;
  std::string power_path, perf_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--requests" && has_value) {
      requests = std::stoul(argv[++i]);
    } else if (arg == "--workers" && has_value) {
      workers = std::stoul(argv[++i]);
    } else if (arg == "--clients" && has_value) {
      clients = std::stoul(argv[++i]);
    } else if (arg == "--cache" && has_value) {
      cache = std::stoul(argv[++i]);
    } else if (arg == "--jitter" && has_value) {
      jitter = std::stod(argv[++i]);
    } else if (arg == "--all-sizes") {
      all_sizes = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--power-model" && has_value) {
      power_path = argv[++i];
    } else if (arg == "--perf-model" && has_value) {
      perf_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (requests == 0 || workers == 0 || clients == 0 ||
      power_path.empty() != perf_path.empty()) {
    return usage();
  }
  // Ctrl-C drains the replay: clients launch nothing new, the partial
  // report prints, the obs artifacts flush, and the exit code is 0.
  install_shutdown_handler();

  serve::ServerOptions sopt;
  sopt.worker_threads = workers;
  sopt.cache_capacity = cache;
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
    const core::Dataset ds = core::build_dataset(model);
    server.load_models(
        core::UnifiedModel::fit(ds, core::TargetKind::Power,
                                core::extended_power_options()),
        core::UnifiedModel::fit(ds, core::TargetKind::ExecTime));
  }

  const serve::PhaseCorpus corpus =
      serve::build_phase_corpus(model, all_sizes);
  serve::TraceOptions topt;
  topt.request_count = requests;
  topt.counter_jitter = jitter;
  const std::vector<serve::Request> trace = serve::synthetic_trace(corpus, topt);
  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << clients << " closed-loop clients, " << workers
            << " workers\n";

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

void parse_connect(const std::string& value, LoadgenOptions& opt) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == value.size()) {
    throw Error("--connect expects HOST:PORT, got '" + value + "'");
  }
  opt.host = value.substr(0, colon);
  const unsigned long port = std::stoul(value.substr(colon + 1));
  if (port == 0 || port > 65535) throw Error("port out of range");
  opt.port = static_cast<std::uint16_t>(port);
}

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
  const core::Dataset ds = core::build_dataset(board);
  const core::UnifiedModel power = core::UnifiedModel::fit(
      ds, core::TargetKind::Power, core::extended_power_options());
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
  const std::vector<serve::Response> truth =
      serve::reference_answers(trace, power, perf);

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
  ropt.admission_control = opt.admission;
  cluster::LocalFleet fleet(power, perf, fopt, ropt);

  std::cout << corpus.counters.size() << " phases, " << trace.size()
            << " requests, " << opt.cluster << " backends ("
            << (opt.chaos ? "wire" : "in-process") << "), " << opt.replicas
            << " replicas per key, " << opt.connections << " workers, ";
  print_loop_shape(opt.open_loop_rate);

  // The supervisor owns recovery under --supervise: the reaper only
  // kills, and the probe → backoff → restart loop brings nodes back.
  std::unique_ptr<cluster::Supervisor> supervisor;
  if (opt.supervise) {
    cluster::SupervisorOptions sup;
    sup.seed = opt.seed;
    if (opt.chaos) sup.injector = &injector;
    supervisor = std::make_unique<cluster::Supervisor>(fleet, sup);
  }
  cluster::DisturberOptions dopt;
  dopt.seed = opt.seed;
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
      {opt.connections, opt.open_loop_rate}, truth);
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
  if (rs.drains > 0 || opt.admission) {
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
    std::cout << "event log (seed " << opt.seed << "):\n"
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
  print_loop_shape(opt.open_loop_rate);

  // A call that throws (retries exhausted under chaos, or the server went
  // away) is counted, not fatal: the report shows partial failure.
  const serve::ReplayResult result = serve::replay(
      trace,
      [&client](const serve::Request& r) { return client.predict(r); },
      {opt.connections, opt.open_loop_rate});

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

int cmd_loadgen(int argc, char** argv) {
  // gppm loadgen --connect HOST:PORT | --cluster N [options]
  LoadgenOptions opt;
  for (int i = 2; i < argc; ++i) {
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
      return usage();
    }
  }
  const bool wire = !opt.host.empty();
  const bool fleet = opt.cluster > 0;
  if (wire == fleet || opt.requests == 0 || opt.connections == 0 ||
      opt.replicas == 0) {
    return usage();
  }
  if (!fleet && (opt.drain_every_ms > 0.0 || opt.rolling_restart ||
                 opt.supervise || opt.admission || opt.deadline_ms > 0.0)) {
    return usage();  // reconfiguration flags are --cluster only
  }
  // Ctrl-C drains the run: workers start nothing new, the partial report
  // prints, the obs artifacts flush, and the exit code is 0 (divergence
  // still fails).
  install_shutdown_handler();
  return fleet ? loadgen_cluster(opt) : loadgen_wire(opt);
}

int cmd_chaos(int argc, char** argv) {
  // gppm chaos <gpu> [--fault-profile FILE] [--seed N] [--benchmarks N]
  if (argc < 3) return usage();
  const sim::GpuModel model = sim::parse_gpu(argv[2]);
  fault::FaultPlan plan = fault::FaultPlan::default_profile();
  std::uint64_t seed = 7;
  std::size_t benchmark_limit = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--fault-profile" && has_value) {
      std::ifstream in(argv[++i]);
      if (!in) throw Error(std::string("cannot open ") + argv[i]);
      plan = fault::FaultPlan::parse(in);
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--benchmarks" && has_value) {
      benchmark_limit = std::stoul(argv[++i]);
    } else {
      return usage();
    }
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

int cmd_mix(int argc, char** argv) {
  // gppm mix <gpu> [--mixes N] [--degree D] [--seed N] [--fit]
  if (argc < 3) return usage();
  const sim::GpuModel model = sim::parse_gpu(argv[2]);
  std::size_t mixes = 8;
  std::size_t degree = 2;
  std::uint64_t seed = 42;
  bool fit = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--mixes" && has_value) {
      mixes = std::stoul(argv[++i]);
    } else if (arg == "--degree" && has_value) {
      degree = std::stoul(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--fit") {
      fit = true;
    } else {
      return usage();
    }
  }
  if (mixes == 0) return usage();

  mix::MixScheduleOptions sched;
  sched.mixes = mixes;
  sched.degree = degree;
  sched.seed = seed;
  const std::vector<mix::ScheduledMix> schedule = mix::mix_schedule(
      sched, profiler::CudaProfiler::unsupported_benchmarks());
  mix::MixEngine engine(model, seed);

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
  std::cout << schedule.size() << " mixes of degree " << degree << " on "
            << sim::to_string(model) << ", worst member slowdown "
            << format_double(worst_slowdown, 2) << "x\n";

  if (!fit) return 0;
  std::cout << "building the interference corpus (32 mixes) and fitting "
               "solo + mix families...\n";
  mix::MixCorpusOptions copt;
  copt.mixes = 32;
  copt.degree = degree;
  copt.seed = seed;
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

int cmd_obs_demo() {
  // A small pass through every instrumented layer, so the obs wiring can be
  // eyeballed end to end: a resilient sweep under a light fault plan (sweep.*
  // counters + spans), a parallel forward selection (select.* and parallel.*),
  // and a burst against the prediction server (serve.* via the metrics
  // bridge).
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

  std::cout << "[2/3] parallel forward selection on the GTX 460 corpus...\n";
  const core::Dataset ds = core::build_dataset(sim::GpuModel::GTX460);
  const core::RegressionTable table =
      core::build_table(ds, core::TargetKind::Power);
  stats::SelectionOptions sopt;
  sopt.max_variables = 10;
  sopt.parallel = true;
  const stats::SelectionResult sel =
      stats::forward_select(table.features, table.target, sopt);
  std::cout << "  selected " << sel.selected.size() << " variables, adj R^2 "
            << format_double(sel.r2_trace.back(), 3) << "\n";

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
  // Observability flags are global: strip them before command dispatch, and
  // flush the requested artifacts after the command finishes (also on a
  // nonzero exit, so a divergent chaos run still leaves its trace behind).
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
  argc = static_cast<int>(args.size());
  argv = args.data();

  const auto flush_obs = [&] {
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
  };

  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      return usage(std::cout, 0);
    }
    int rc = 2;
    if (cmd == "specs") rc = cmd_specs();
    else if (cmd == "pairs" && argc == 3) rc = cmd_pairs(argv[2]);
    else if (cmd == "counters" && argc == 3) rc = cmd_counters(argv[2]);
    else if (cmd == "trace" && argc == 3) rc = cmd_trace(argv[2]);
    else if (cmd == "benchmarks") rc = cmd_benchmarks();
    else if (cmd == "sweep" && argc == 4) rc = cmd_sweep(argv[2], argv[3]);
    else if (cmd == "fit") rc = cmd_fit(argc, argv);
    else if (cmd == "predict") rc = cmd_predict(argc, argv);
    else if (cmd == "governor") rc = cmd_governor(argc, argv);
    else if (cmd == "govern") rc = cmd_govern(argc, argv);
    else if (cmd == "serve") rc = cmd_serve(argc, argv);
    else if (cmd == "serve-bench") rc = cmd_serve_bench(argc, argv);
    else if (cmd == "loadgen") rc = cmd_loadgen(argc, argv);
    else if (cmd == "chaos") rc = cmd_chaos(argc, argv);
    else if (cmd == "mix") rc = cmd_mix(argc, argv);
    else if (cmd == "obs-demo") rc = cmd_obs_demo();
    else return usage();
    flush_obs();
    return rc;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
