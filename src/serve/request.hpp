// Request/response vocabulary of the prediction server.
//
// A client ships a workload phase (its counter profile) plus what it wants
// to know; the server answers from the fitted unified models of the named
// board.  The three kinds mirror the paper's three uses of the models:
// point prediction (TABLES V-VIII), energy-optimal pair selection
// (TABLE IV semantics via core/optimizer) and online governor decisions
// (the "dynamic runtime management" future work via core/governor).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "core/governor.hpp"

namespace gppm::serve {

/// What a request asks of the models.
enum class RequestKind : std::uint8_t {
  Predict,   ///< power + time at one explicit frequency pair
  Optimize,  ///< rank all configurable pairs, return the energy-optimal one
  Govern,    ///< stateful governor decision (hysteresis across requests)
};

inline constexpr std::size_t kRequestKindCount = 3;

std::string to_string(RequestKind kind);

/// One serving request.
struct Request {
  RequestKind kind = RequestKind::Predict;
  sim::GpuModel gpu = sim::GpuModel::GTX680;
  /// Which tenant this request belongs to.  Tenant 0 is the shared
  /// default: it is served from the board's default model pair and is
  /// never quota-limited.  Non-zero tenants route to their own model
  /// family when one is registered (falling back to the default pair) and
  /// are subject to any per-tenant admission quota.
  std::uint32_t tenant = 0;
  profiler::ProfileResult counters;
  /// Predict only: the operating point to evaluate.
  sim::FrequencyPair pair = sim::kDefaultPair;
  /// Govern only: which governor instance decides.
  core::GovernorPolicy policy = core::GovernorPolicy::MinimumEnergy;
  /// Service deadline relative to submission; zero (the default) means
  /// none.  A request still queued past its deadline is answered with
  /// ResponseStatus::DeadlineExceeded instead of being evaluated.
  Duration deadline;
};

/// Why a request did not produce a prediction.  Errors are *responses*,
/// not worker-side exceptions: a bad request must never kill a worker
/// thread or turn into a broken future.
enum class ResponseStatus : std::uint8_t {
  Ok,
  NoModels,          ///< no model pair loaded for the requested board
  DeadlineExceeded,  ///< spent longer than request.deadline in the queue
  Overloaded,        ///< load-shed: queue or tenant quota saturated
  InternalError,     ///< the handler threw; details in Response::error
};

std::string to_string(ResponseStatus status);

/// The server's answer.  All predictions are the raw model outputs except
/// for Optimize/Govern, which apply core/optimizer's physical clamps
/// before ranking (power >= 1 W, time >= 1 ms).
struct Response {
  RequestKind kind = RequestKind::Predict;
  /// Ok, or the typed reason there is no prediction in this response.
  ResponseStatus status = ResponseStatus::Ok;
  /// Human-readable detail for non-Ok statuses.
  std::string error;
  /// Predict: the requested pair.  Optimize/Govern: the chosen pair.
  sim::FrequencyPair pair = sim::kDefaultPair;
  double power_watts = 0.0;
  double time_seconds = 0.0;
  double energy_joules = 0.0;
  /// True if every model evaluation behind this response was served from
  /// the prediction cache.
  bool cache_hit = false;
  /// Queue wait + service time, measured by the worker.
  Duration latency;

  bool ok() const { return status == ResponseStatus::Ok; }
};

/// The "same answer" gate: equal status and pair, and the same bits in
/// each of the three predictions — so 0.0 and -0.0 differ, and a NaN
/// matches an identical NaN.  Error text, cache_hit and latency are not
/// compared: they legitimately differ between servers of one request.
inline bool bit_identical(const Response& a, const Response& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.status == b.status && a.pair == b.pair &&
         bits(a.power_watts) == bits(b.power_watts) &&
         bits(a.time_seconds) == bits(b.time_seconds) &&
         bits(a.energy_joules) == bits(b.energy_joules);
}

}  // namespace gppm::serve
