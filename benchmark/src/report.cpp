#include "report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/simd.hpp"

#ifndef GPPM_BENCHMARK_BUILD_TYPE
#define GPPM_BENCHMARK_BUILD_TYPE "unknown"
#endif

namespace gppm::benchmark {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

template <std::size_t N>
const MetricSpec* find_spec(const MetricSpec (&specs)[N],
                            const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// The result's metrics in the order of `specs`, which they must cover
/// exactly.
template <std::size_t N>
std::vector<Metric> ordered(const std::vector<Metric>& metrics,
                            const MetricSpec (&specs)[N]) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    std::size_t found = 0;
    for (const Metric& m : metrics) {
      if (m.name == spec.name) {
        out.push_back(m);
        ++found;
      }
    }
    if (found != 1) {
      throw std::logic_error("metric " + std::string(spec.name) + " set " +
                             std::to_string(found) + " times");
    }
  }
  if (out.size() != metrics.size()) {
    throw std::logic_error("result carries metrics of the other mode");
  }
  return out;
}

}  // namespace

void Result::metric(const std::string& name, double value) {
  const MetricSpec* spec = find_spec(kEndToEndMetrics, name);
  if (!spec) spec = find_spec(kPerLayerMetrics, name);
  if (!spec) throw std::logic_error("unknown metric " + name);
  if (!std::isfinite(value)) fail("metric " + name + " is not a number");
  metrics.push_back({name, value, spec->unit});
}

double proc_status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

HostCpu host_cpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!stat || cpu != "cpu") throw std::runtime_error("cannot read /proc/stat");
  return {user + nice + system + idle + iowait + irq + softirq + steal,
          idle + iowait, steal};
}

void emit(const Result& unordered, const RunConfig& config,
          unsigned long timer_slack_ns, int cpu) {
  Result result = unordered;
  result.metrics = config.traced ? ordered(result.metrics, kPerLayerMetrics)
                                 : ordered(result.metrics, kEndToEndMetrics);
  for (const Metric& m : result.metrics) {
    std::cout << result.workload << " " << m.name << " " << number(m.value)
              << " " << m.unit << "\n";
  }
  for (const std::string& e : result.errors) {
    std::cout << result.workload << " FAILED " << e << "\n";
  }

  const char* threads_env = std::getenv("GPPM_THREADS");
  std::ostringstream file;
  file << "{\n  \"workload\": " << quoted(result.workload) << ",\n"
       << "  \"env\": {\"commit\": " << quoted(config.commit)
       << ", \"compiler\": " << quoted(__VERSION__)
       << ", \"simd_backend\": " << quoted(simd::kBackend)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"gppm_threads\": "
       << quoted(threads_env ? threads_env : "unset")
       << ", \"build_type\": " << quoted(GPPM_BENCHMARK_BUILD_TYPE)
       << ", \"seed\": " << config.seed
       << ", \"seconds\": " << number(config.seconds)
       << ", \"smoke\": " << (config.smoke ? "true" : "false")
       << ", \"traced\": " << (config.traced ? "true" : "false")
       << ", \"timer_slack_ns\": " << timer_slack_ns
       << ", \"cpu\": " << cpu << "},\n"
       << "  \"correct\": " << (result.correct() ? "true" : "false") << ",\n"
       << "  \"attempted\": " << result.attempted << ",\n"
       << "  \"failed\": " << result.failed << ",\n"
       << "  \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    file << (i ? ", " : "") << quoted(result.errors[i]);
  }
  file << "],\n  \"metrics\": " << metrics_object(result.metrics) << ",\n"
       << "  \"details\": " << metrics_object(result.details) << "\n}\n";
  const std::string path = config.out_dir + "/" + result.workload +
                           (config.traced ? ".traced" : "") + ".json";
  std::ofstream out(path);
  out << file.str();
  if (!out) throw std::runtime_error("cannot write result file " + path);

  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_object(result.metrics) << "}"
            << std::endl;
}

}  // namespace gppm::benchmark
