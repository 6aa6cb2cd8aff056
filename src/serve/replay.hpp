// serve::replay — the one load driver behind every serving claim.
//
// Replays a trace through any Request -> Response call (an in-process
// PredictionServer, a net::Client over the wire, a cluster::Router) from
// worker threads, times every call, and checks every Ok answer bit for bit
// against a ground truth when one is given:
//
//   * closed loop (rate 0, the default): each worker keeps exactly one
//     request in flight and takes the next trace index when its call
//     returns — the saturation shape behind the throughput numbers;
//   * open loop (rate > 0): request i departs no earlier than
//     start + i/rate whatever the completions do (a worker that falls
//     behind fires at once), so offered load is set by the rate, not by
//     service capacity — the shape that makes queueing and shedding
//     visible.
//
// A call that throws is counted as failed and records no latency; it never
// takes its worker down.  Workers stop taking new indices once
// shutdown_requested() is set, so a Ctrl-C'd CLI replay ends with a
// partial but honest result.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/unified_model.hpp"
#include "serve/request.hpp"

namespace gppm::serve {

/// Exact percentile of an ascending sample: the element at rank
/// round(q * (n - 1)).  0 for an empty sample.
double percentile(const std::vector<double>& sorted, double q);

struct ReplayOptions {
  /// Worker threads; each has at most one call in flight.
  std::size_t workers = 4;
  /// Open-loop arrival rate in requests/s; 0 = closed loop.
  double rate = 0.0;
};

struct ReplayResult {
  /// Seconds per answered call, ascending.
  std::vector<double> latencies;
  /// Seconds per Ok answer, ascending.
  std::vector<double> ok_latencies;
  /// Answers per status.
  std::map<ResponseStatus, std::uint64_t> statuses;
  /// Calls that threw instead of answering.
  std::uint64_t failed = 0;
  /// Ok answers that are not bit_identical to their ground truth.
  std::uint64_t divergent = 0;
  /// Wall time from the start of the replay to its last answer.
  double elapsed_seconds = 0.0;

  std::uint64_t answered() const { return latencies.size(); }
  std::uint64_t ok() const { return ok_latencies.size(); }
  std::uint64_t count(ResponseStatus status) const;
  /// Answers per second of wall time.
  double rps() const;
};

using Call = std::function<Response(const Request&)>;

/// Replay `trace` through `call`.  When `truth` is non-empty it holds one
/// expected answer per trace entry, and every Ok answer is compared with
/// its entry.
ReplayResult replay(const std::vector<Request>& trace, const Call& call,
                    ReplayOptions options = {},
                    const std::vector<Response>& truth = {});

/// The ground truth for a replay: every request of `trace` answered, in
/// order, by one fresh single-node server holding the model pair.
std::vector<Response> reference_answers(const std::vector<Request>& trace,
                                        const core::UnifiedModel& power,
                                        const core::UnifiedModel& perf);

}  // namespace gppm::serve
