// Run configuration, results and their three renderings: one line per
// metric (`workload metric value unit`), a result file with the
// environment stamp, and the one-line JSON summary that ends stdout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gppm::benchmark {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  /// Wall time of the measured phases: BENCHMARK.json's run_seconds, which
  /// run.sh passes on.  No default here, so the run length has one source.
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the system sees; reported by untraced runs.  The names,
/// units and order match BENCHMARK.json.
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"throughput_rps", "req/s"}, {"p50_us", "us"},
    {"tail_us", "us"},           {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},      {"energy_saving_pct", "%"},
};

/// One layer each; reported by traced runs.
inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"net.rtt_p50_us", "us"},
    {"net.transport_p50_us", "us"},
    {"net.encode_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.bytes_per_request", "B"},
    {"net.retries", "count"},
    {"serve.latency_p50_us", "us"},
    {"serve.handoff_p50_us", "us"},
    {"serve.mean_batch", "req"},
    {"serve.queue_high_water", "req"},
    {"serve.cache_hit_rate", "fraction"},
    {"serve.cache_evictions_per_request", "1/req"},
    {"core.predict_ns", "ns"},
    {"core.predict_all_pairs_us", "us"},
    {"core.governor_decide_us", "us"},
    {"cluster.router_overhead_p50_us", "us"},
    {"cluster.ring_replicas_ns", "ns"},
    {"cluster.hedge_rate", "fraction"},
    {"cluster.hedge_win_ratio", "fraction"},
    {"cluster.failovers", "count"},
    {"core.build_dataset_ms", "ms"},
    {"core.build_table_ms", "ms"},
    {"linalg.gram_ms", "ms"},
    {"stats.forward_select_ms", "ms"},
    {"core.family_fit_ms", "ms"},
    {"governor.oracle_gap_pct", "%"},
    {"governor.switches", "count"},
    {"governor.reboots", "count"},
    {"trace_overhead_pct", "%"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics the run reports: every end-to-end metric, or with
  /// tracing every per-layer metric (emit() checks which).
  std::vector<Metric> metrics;
  /// Facts that qualify the metrics (sample counts, the tail percentile,
  /// every set-up repetition); result file only.
  std::vector<Metric> details;
  /// Failed correctness checks, one line each.
  std::vector<std::string> errors;

  bool correct() const { return errors.empty() && failed == 0; }
  /// Set a metric named in kEndToEndMetrics or kPerLayerMetrics.
  void metric(const std::string& name, double value);
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  /// Record a failed check; `count` operations count as failed.
  void fail(const std::string& why, std::uint64_t count = 1) {
    errors.push_back(why);
    failed += count;
  }
};

/// Resident set size fields of /proc/self/status ("VmRSS", "VmHWM"), MiB.
double proc_status_mib(const char* field);

/// The host's CPU time, summed over CPUs, from /proc/stat (clock ticks).
struct HostCpu {
  double total = 0.0;
  double idle = 0.0;   ///< idle + iowait
  double steal = 0.0;  ///< taken by the hypervisor for other guests
};
HostCpu host_cpu();

/// Print the metric lines and the closing JSON line to stdout and write
/// <out_dir>/<workload>[.traced].json with the environment stamp.
/// `timer_slack_ns` is what the generator threads ran with and `cpu` the
/// one CPU the process ran on.  Throws when the result lacks a metric its
/// mode must report.
void emit(const Result& result, const RunConfig& config,
          unsigned long timer_slack_ns, int cpu);

}  // namespace gppm::benchmark
