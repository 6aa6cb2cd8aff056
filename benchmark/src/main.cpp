// gppm_benchmark — one workload of the end-to-end benchmark per process.
//
//   gppm_benchmark --workload wire-hot|serve-cold|cluster-hot|fit
//                  --seconds S [--seed N] [--trace 0|1] [--smoke]
//                  [--out DIR] [--commit SHA]
//
// S is BENCHMARK.json's run_seconds (run.sh reads it there); runs of
// different lengths measure differently sized slices and are not
// compared.  Prints `workload metric value unit` per metric, then one JSON line
// {"correct", "attempted", "failed", "metrics"}; writes the result with its
// environment stamp to DIR/<workload>[.traced].json and, when traced, the
// spans to DIR/<workload>.chrome-trace.json.  Exits 1 on a failed check,
// 2 on a usage error.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fit.hpp"
#include "loadgen.hpp"
#include "report.hpp"
#include "served.hpp"

using namespace gppm::benchmark;

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: gppm_benchmark --workload "
               "wire-hot|serve-cold|cluster-hot|fit --seconds S [--seed N] "
               "[--trace 0|1] [--smoke] [--out DIR] [--commit SHA]\n";
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.traced = value == "1";
      } else if (arg == "--out") {
        config.out_dir = value;
      } else if (arg == "--commit") {
        config.commit = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (config.workload != "fit" && !is_served_workload(config.workload)) {
    usage("unknown workload '" + config.workload + "'");
  }
  if (!(config.seconds > 0)) usage("--seconds is required and must be positive");
  // Smoke runs every phase at a tenth of its length.
  if (config.smoke) config.seconds /= 10.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse(argc, argv);
  try {
    // Before any thread starts, so that every thread inherits it.
    const int cpu = pin_to_one_cpu();
    // The slack every generator thread runs with, for the stamp.
    unsigned long slack = 0;
    std::thread([&] {
      set_fine_timer_slack();
      slack = timer_slack_ns();
    }).join();

    SpanRecorder spans(config.traced);
    const HostCpu host_before = host_cpu();
    Result result = config.workload == "fit" ? run_fit(config, spans)
                                             : run_served(config, spans);
    // How busy the host was, and how much CPU the hypervisor gave to other
    // guests: context for judging a run, not a metric.
    const HostCpu host_after = host_cpu();
    const double ticks = host_after.total - host_before.total;
    result.detail("host_busy_pct",
                  100.0 * (1.0 - (host_after.idle - host_before.idle) / ticks),
                  "%");
    result.detail("host_steal_pct",
                  100.0 * (host_after.steal - host_before.steal) / ticks, "%");
    if (config.traced) {
      spans.write_chrome_trace(config.out_dir + "/" + config.workload +
                               ".chrome-trace.json");
    }
    emit(result, config, slack, cpu);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << config.workload << ": " << e.what() << "\n";
    return 1;
  }
}
