// cluster::Router — sharded, replicated front-end over a backend fleet.
//
// Placement: each request's key (see ring.hpp) owns R replicas on a
// consistent-hash ring, primary first.  The router sends to the primary
// and holds the rest as hedge/failover targets, so a single backend loss
// costs its keys one failover, not an outage, and membership change
// remaps only ≈K/N keys.
//
// Tail control, layered in order of escalation:
//
//   * circuit breaking — a backend that keeps failing trips its breaker
//     Open and is routed around without spending a connection attempt;
//     the health loop probes it (HalfOpen) and closes the breaker when it
//     answers again;
//   * hedged requests — if the primary has not answered within the
//     observed p99 latency (an obs::Histogram, clamped to
//     [hedge_min_delay, hedge_max_delay]), the same request is fired at
//     the next replica and the first answer wins.  The loser is
//     abandoned, not awaited: the futures are promise-backed, so dropping
//     the handle never blocks, and the work it represents is accounted
//     under hedges_abandoned.  Predictions are pure, which is what makes
//     the duplicate send safe;
//   * failover — a failed flight (submit threw, or the future carried an
//     exception) records a breaker failure and moves to the next replica;
//     only when every replica has failed does the caller get an answer —
//     a typed ResponseStatus::InternalError response, never an exception,
//     mirroring the serve contract.
//
// Deadlines need no router logic: they ride the request into whichever
// backend serves it and the serve admission queue enforces them; load
// shedding likewise comes back as a typed Overloaded answer.  With
// admission_control on, the router additionally sheds at its own door
// (AIMD limit + deadline-aware estimate, serve::AdmissionController)
// before any backend is touched.
//
// Membership changes come in two shapes: remove_backend() is abrupt
// (crash semantics — in-flight work keeps its SlotPtr and finishes or
// fails over), drain_backend() is planned — the member leaves the ring
// immediately so new keys route to the post-removal owners, but the slot
// parks in a Draining set until its in-flight count hits zero, then the
// call reports handoff size, duration, and a zero-loss flag.
//
// predict() is synchronous on the caller's thread (closed-loop clients,
// the bench).  submit() runs predict() on a private executor and returns
// a future — the shape net::Server's bridge needs.  The router's
// obs::Scope exports its own counts under cluster.router.* (requests,
// hedges fired/won/abandoned, failovers, breaker opens, ring remaps,
// per-backend in-flight gauges, the hedge-trigger latency histogram),
// its drains under cluster.drain.* and its admission controller under
// serve.admission.*.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/backend.hpp"
#include "cluster/breaker.hpp"
#include "cluster/ring.hpp"
#include "common/units.hpp"
#include "fault/injector.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"

namespace gppm::cluster {

struct RouterOptions {
  /// Owners per key (>=2 for the loss-of-one-backend story; clamped to
  /// the fleet size at routing time).
  std::size_t replicas = 2;
  std::size_t ring_vnodes = 256;

  bool hedging = true;
  Duration hedge_min_delay = Duration::milliseconds(0.5);
  Duration hedge_max_delay = Duration::milliseconds(100.0);
  /// Below this many recorded latencies the trigger is hedge_max_delay
  /// (be conservative until the distribution is known).
  std::uint64_t hedge_min_samples = 64;

  BreakerOptions breaker;

  /// Health-probe period; 0 disables the background loop (tests drive
  /// breakers directly).
  Duration health_interval = Duration::milliseconds(25.0);

  /// Adaptive overload control (AIMD limit + deadline-aware admission) in
  /// front of predict(); a shed request gets a typed Overloaded response
  /// instead of queueing toward deadline blowout.
  bool admission_control = false;
  serve::AdmissionOptions admission;

  /// Chaos hook: consulted at the `cluster.drain.slow` site by
  /// drain_backend().  Not owned; may be nullptr (no injection).
  fault::FaultInjector* injector = nullptr;
};

/// Outcome of one drain_backend() call.
struct DrainReport {
  std::string backend;
  /// Requests still on the backend when it left the ring.
  std::uint64_t in_flight_at_start = 0;
  /// Requests that completed on the draining backend after it left the
  /// ring (the handoff window).
  std::uint64_t handed_off = 0;
  Duration duration = Duration::seconds(0.0);
  /// Drained to zero in time and no request failed during the handoff.
  bool zero_loss = false;
  /// In-flight reached zero before the timeout.
  bool completed = false;
  /// LocalFleet refused the drain: the backend was the ring's last
  /// member, so it was left serving and nothing else in this report holds.
  bool refused = false;
};

struct RouterStats {
  std::uint64_t requests = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_abandoned = 0;
  std::uint64_t failovers = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_rejections = 0;
  std::uint64_t ring_remaps = 0;
  std::uint64_t exhausted = 0;  ///< every replica failed
  std::uint64_t drains = 0;
  std::uint64_t drain_handed_off = 0;
  std::uint64_t admission_shed = 0;  ///< typed Overloaded at the door
};

class Router {
 public:
  explicit Router(RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Join a backend to the ring (name from backend->name(); must be
  /// unique among live members).
  void add_backend(std::shared_ptr<Backend> backend);
  /// Leave the ring; in-flight requests on the backend finish on their
  /// own.  No-op for unknown names.
  void remove_backend(const std::string& name);
  /// Planned removal: the backend leaves the ring immediately (new keys
  /// route to the post-removal owners) but its slot is kept in a Draining
  /// set so in-flight requests complete on it; blocks until in-flight hits
  /// zero or `timeout` (<= 0 waits up to 10 s), then drops the
  /// slot and reports.  Unknown names return a completed zero-loss no-op
  /// report; draining a name twice observes the same drain.
  DrainReport drain_backend(const std::string& name,
                            Duration timeout = Duration::seconds(0.0));
  std::vector<std::string> backends() const;
  /// True while `name` is in the draining set (left the ring, finishing
  /// in-flight work).
  bool draining(const std::string& name) const;

  /// Route, hedge, fail over; always answers (typed statuses for
  /// failures).  Throws gppm::Error only when the router has no backends
  /// at all or is stopped.
  serve::Response predict(const serve::Request& request);

  /// predict() on the executor; the future never carries an exception
  /// once enqueued.  Throws gppm::Error after stop() (the serve submit
  /// contract).
  std::future<serve::Response> submit(serve::Request request);

  /// Aggregate health for the net bridge: accepting while any backend's
  /// breaker admits traffic.
  net::HealthStatus health() const;

  BreakerState breaker_state(const std::string& name) const;
  RouterStats stats() const;
  /// Router-observed in-flight count for one backend name (0 for a name
  /// that never joined; draining and departed backends still report).
  std::int64_t in_flight(const std::string& name) const;
  /// Current hedge trigger (what the next slow primary would wait).
  Duration hedge_delay() const;
  /// The admission controller, or nullptr when admission_control is off.
  const serve::AdmissionController* admission() const {
    return admission_ ? admission_.get() : nullptr;
  }

  /// Stop the health loop and the executor; backends are left running
  /// (the fleet owns their lifecycle).  Idempotent.
  void stop();

 private:
  struct Slot {
    std::shared_ptr<Backend> backend;
    CircuitBreaker breaker;
    /// The router's in-flight gauge for this backend's name (kept across
    /// leave and rejoin, like its high-water mark).
    obs::Gauge& in_flight;
    /// Failed flights on this backend (feeds the drain zero-loss flag).
    std::atomic<std::uint64_t> failures{0};
    Slot(std::shared_ptr<Backend> b, const BreakerOptions& bo,
         obs::Gauge& g)
        : backend(std::move(b)), breaker(bo), in_flight(g) {}
  };
  using SlotPtr = std::shared_ptr<Slot>;

  struct AsyncJob {
    serve::Request request;
    std::promise<serve::Response> promise;
  };

  /// One launched attempt.
  struct Flight {
    SlotPtr slot;
    std::future<serve::Response> future;
    std::chrono::steady_clock::time_point launched;
    bool is_hedge = false;
  };

  std::vector<SlotPtr> route(const serve::Request& request) const;
  serve::Response predict_admitted(const serve::Request& request);
  /// Launch on the first admissible candidate from `next` on; records
  /// breaker failures for refused/failed launches.  Returns false when no
  /// candidate remains.
  bool launch(const std::vector<SlotPtr>& candidates, std::size_t& next,
              bool is_hedge, Flight& out, const serve::Request& request);
  void health_loop();
  void executor_loop();
  /// A failed flight or probe: feeds the breaker, counts an open.
  void record_failure(Slot& slot);
  /// The scope's reader.
  void add_rows(obs::MetricsSnapshot& rows) const;

  RouterOptions options_;
  /// Per-backend-name in-flight gauges, declared before the slots that
  /// reference them; map nodes never move.  A leaf lock: the scope's
  /// reader takes it.
  mutable std::mutex gauges_mutex_;
  std::map<std::string, obs::Gauge> in_flight_gauges_;

  mutable std::shared_mutex membership_mutex_;
  HashRing ring_;
  std::map<std::string, SlotPtr> slots_;
  /// Backends off the ring but still finishing in-flight work.
  std::map<std::string, SlotPtr> draining_;

  /// Winning-flight latency in seconds; feeds the hedge trigger.
  obs::Histogram latency_;
  std::unique_ptr<serve::AdmissionController> admission_;

  serve::BoundedQueue<AsyncJob> async_queue_;
  std::vector<std::thread> executors_;
  std::thread health_thread_;
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hedges_fired_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> hedges_abandoned_{0};
  std::atomic<std::uint64_t> failovers_{0};
  /// Closed/HalfOpen -> Open transitions of every breaker this router
  /// ever held, so backends that leave keep their share.
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_rejections_{0};
  std::atomic<std::uint64_t> ring_remaps_{0};
  std::atomic<std::uint64_t> exhausted_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> drains_completed_{0};
  std::atomic<std::uint64_t> drain_timeouts_{0};
  std::atomic<std::uint64_t> drain_handed_off_{0};
  obs::Histogram drain_duration_ms_;
  std::atomic<std::uint64_t> admission_shed_{0};

  /// Last member: constructed after and destroyed before what it reads.
  obs::Scope scope_;
};

}  // namespace gppm::cluster
