// The served workloads (wire-hot, serve-cold, cluster-hot) and the probe of
// one serving path's per-request cost.
#pragma once

#include <string>
#include <vector>

#include "core/unified_model.hpp"
#include "report.hpp"
#include "serve/request.hpp"
#include "spans.hpp"

namespace gppm::benchmark {

/// Generator threads of the warm-up and the throughput slices.
inline constexpr std::size_t kGenerators = 4;
/// Setup runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 18;

/// How a caller reaches the prediction engine.
enum class Path {
  Wire,       ///< net::Client -> net::Server -> serve::PredictionServer
  InProcess,  ///< serve::PredictionServer::submit().get()
  Cluster,    ///< cluster::Router::predict over two in-process nodes
};

/// Unloaded cost of one request on one path, as p50s over the requests.
struct PathCosts {
  double wall_p50_us = 0.0;     ///< the caller's call
  double server_p50_us = 0.0;   ///< serve::Response::latency
  double outside_p50_us = 0.0;  ///< the call minus Response::latency
};

/// Send every request once to warm a fresh stack on `path`, then again,
/// timed and one at a time, until at least 1000 have been timed.  Counts
/// the timed requests in `out`.
PathCosts probe_path(Path path, const std::vector<serve::Request>& requests,
                     const core::UnifiedModel& power,
                     const core::UnifiedModel& perf, Result& out,
                     SpanRecorder& spans);

bool is_served_workload(const std::string& name);
Result run_served(const RunConfig& config, SpanRecorder& spans);

}  // namespace gppm::benchmark
