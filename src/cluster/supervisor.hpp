// cluster::Supervisor — keeps a LocalFleet's nodes alive.
//
// A background thread probes every node through its fronting backend
// (wire mode: a protocol-v2 Health frame per probe, with the v1 ping
// fallback RemoteBackend already implements).  A node that misses
// `failure_threshold` consecutive probes is restarted — with jittered
// exponential backoff between attempts so a node that dies on arrival
// does not get hammered, and a per-node restart budget so a truly
// unrecoverable node is eventually left down and flagged instead of
// burning the loop forever.  The budget refills when the node answers a
// probe again: it bounds restart *storms*, not the fleet's lifetime.
//
// Division of labour with the rest of the resilience stack:
//   * drained nodes (off the ring) are skipped — a planned removal is not
//     a failure, and restarting it would fight drain_node();
//   * breakers are NOT reset on restart.  The router's health loop probes
//     the recovered node and walks its breaker Open → HalfOpen → Closed,
//     so a supervised restart re-admits traffic gradually instead of
//     thundering in.  The supervisor restores the *process*, the breaker
//     restores *trust*;
//   * the `supervisor.probe` fault site simulates probe loss (the monitor
//     seeing a healthy node as dead) — the jitter/backoff/threshold
//     machinery must tolerate a lying monitoring plane.
//
// Deterministic: all jitter comes from one seeded Rng forked per node.
// The supervisor's obs::Scope exports its counts and a restart-backoff
// histogram under cluster.supervisor.*.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "cluster/fleet.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/injector.hpp"
#include "obs/obs.hpp"

namespace gppm::cluster {

struct SupervisorOptions {
  Duration probe_interval = Duration::milliseconds(25.0);
  /// Consecutive missed probes before a restart is attempted.
  int failure_threshold = 2;
  /// Restart attempts per node before it is flagged unrecoverable
  /// (refilled when the node answers a probe again).
  int restart_budget = 5;
  Duration initial_backoff = Duration::milliseconds(50.0);
  Duration max_backoff = Duration::seconds(2.0);
  /// Backoff jitter fraction: each wait is scaled by U(1-j, 1+j).
  double jitter = 0.2;
  /// Seed for the jitter streams (forked per node).
  std::uint64_t seed = 42;
  /// Chaos hook for the `supervisor.probe` probe-loss site.  Not owned;
  /// may be nullptr.
  fault::FaultInjector* injector = nullptr;
};

struct SupervisorStats {
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;  ///< missed probes (incl. injected)
  std::uint64_t probes_lost = 0;     ///< injected losses only
  std::uint64_t restarts = 0;
  std::uint64_t skipped_drained = 0;  ///< probes skipped: node off-ring
  std::uint64_t budget_exhausted = 0;  ///< nodes flagged unrecoverable
};

class Supervisor {
 public:
  /// Starts the probe thread immediately.  The fleet must outlive the
  /// supervisor.
  Supervisor(LocalFleet& fleet, SupervisorOptions options = {});
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  SupervisorStats stats() const;

  /// Stop the probe thread.  Idempotent.
  void stop();

 private:
  /// Per-node supervision state (indexed like the fleet; grows with it).
  struct NodeState {
    int consecutive_failures = 0;
    int restarts_used = 0;
    double backoff_s = 0.0;
    std::chrono::steady_clock::time_point next_attempt{};
    bool flagged_unrecoverable = false;
    Rng rng{0};
  };

  void loop();
  void supervise(std::size_t i);

  LocalFleet& fleet_;
  SupervisorOptions options_;
  std::vector<NodeState> states_;  ///< probe thread only
  Rng root_rng_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> probe_failures_{0};
  std::atomic<std::uint64_t> probes_lost_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> skipped_drained_{0};
  std::atomic<std::uint64_t> budget_exhausted_{0};
  /// Jittered wait after each restart attempt, in ms.
  obs::Histogram backoff_ms_;
  /// Last member: constructed after and destroyed before what it reads.
  obs::Scope scope_;
};

}  // namespace gppm::cluster
