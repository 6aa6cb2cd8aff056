// serve::AdmissionController — adaptive overload control for a serving
// front-end (the cluster Router, or any caller that can answer a typed
// Overloaded response instead of queueing).
//
// Why not a fixed concurrency cap: serving capacity is a moving target —
// under DVFS the same node's throughput shifts with the operating point
// (the paper's TABLE IV spread is 13–75 % energy between pairs, and Mei et
// al.'s survey shows comparable performance swings), and in a fleet the
// capacity behind one router changes with every membership event.  A static
// limit is therefore either wasteful or unsafe.  This controller *probes*
// for the current capacity the same way TCP does:
//
//   * AIMD concurrency limit — every successful request within its deadline
//     raises the limit additively (+1/limit, so one unit per limit-sized
//     window); every congestion signal (a downstream Overloaded or
//     DeadlineExceeded answer, or an accepted request that blew past its
//     own deadline) cuts it multiplicatively (x `decrease`).  Decreases are
//     rate-limited to one per observed-latency window so a burst of
//     simultaneous failures counts as one signal, not a collapse to
//     min_limit.
//   * deadline-aware admission — the controller keeps an EWMA of observed
//     service latency; a request whose deadline is shorter than the
//     *estimated* completion time (EWMA scaled by the current queue-ish
//     factor 1 + in_flight/limit) is shed immediately.  Shedding at the
//     door costs microseconds; queueing it toward certain deadline blowout
//     costs a worker slot and still answers late.
//
// The caller contract: try_acquire() before launching; exactly one
// release_*() per acquired ticket.  A false try_acquire() means "answer
// ResponseStatus::Overloaded now" — the degradation ladder's last rung
// before a typed error (docs/ROBUSTNESS.md).
//
// Thread-safe (one internal mutex; calls are a few arithmetic ops).
// add_rows() exports the controller's counts under serve.admission.*; the
// cluster Router's obs::Scope calls it for the controller it owns.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "common/units.hpp"
#include "obs/obs.hpp"

namespace gppm::serve {

/// Validated at AdmissionController construction: limits must be finite
/// with 1 <= min_limit <= max_limit and initial_limit >= 1 (clamped into
/// [min, max]), decrease in (0, 1), ewma_alpha in (0, 1], deadline_headroom
/// finite and > 0.  Violations (including NaN, which would pin the AIMD
/// clamp open or shut) throw gppm::Error instead of misbehaving silently.
struct AdmissionOptions {
  /// Starting concurrency limit (the slow-start ceiling is probed from
  /// here).
  double initial_limit = 32.0;
  double min_limit = 2.0;
  double max_limit = 4096.0;
  /// Multiplicative decrease factor applied per congestion signal.
  double decrease = 0.7;
  /// EWMA smoothing for the observed-latency estimate.
  double ewma_alpha = 0.1;
  /// Shed when estimated completion time exceeds deadline * headroom
  /// (headroom < 1 sheds earlier, > 1 is more permissive).
  double deadline_headroom = 1.0;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed_limit = 0;     ///< refused: concurrency limit reached
  std::uint64_t shed_deadline = 0;  ///< refused: cannot finish in time
  std::uint64_t backoffs = 0;       ///< multiplicative decreases applied
  double limit = 0.0;               ///< current AIMD limit
  std::int64_t in_flight = 0;
  double ewma_latency_s = 0.0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  /// Admit one request, or shed it.  `deadline` is the request's relative
  /// service deadline (zero = none; then only the concurrency limit
  /// applies).  True = launched; the caller owes exactly one release.
  bool try_acquire(Duration deadline);

  /// The request finished within contract: release the slot, feed the
  /// latency into the EWMA, raise the limit additively.
  void release_success(Duration latency);
  /// The request surfaced congestion (downstream shed/deadline blowout, or
  /// an accepted answer later than its own deadline): release the slot and
  /// apply one (rate-limited) multiplicative decrease.  Pass the observed
  /// latency when there is one (it still improves the estimate).
  void release_congestion(Duration latency = Duration::seconds(0.0));
  /// The request failed for non-capacity reasons (dead backend): release
  /// the slot without steering the limit either way.
  void release_error();

  double limit() const;
  std::int64_t in_flight() const;
  AdmissionStats stats() const;
  /// Append the serve.admission.* rows: admitted/shed/backoff counters,
  /// and the limit and in-flight gauges with their high-water marks.
  void add_rows(obs::MetricsSnapshot& rows) const;

 private:
  using Clock = std::chrono::steady_clock;

  void release_locked();
  void observe_locked(double seconds);
  void set_limit_locked(double limit);

  AdmissionOptions options_;
  mutable std::mutex mutex_;
  double limit_ = 0.0;
  /// The limit truncated to whole slots, for its high-water mark.
  obs::Gauge limit_gauge_;
  obs::Gauge in_flight_;
  double ewma_s_ = 0.0;
  Clock::time_point last_decrease_{};
  AdmissionStats stats_;
};

}  // namespace gppm::serve
