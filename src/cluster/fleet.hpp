// LocalFleet — N backend nodes plus the Router fronting them, built from
// one fitted model pair.
//
// Every node loads a copy of the *same* (power, exectime) UnifiedModel
// pair, so any replica's answer to any request is bit-identical to any
// other's — the property that makes hedging, failover and chaos-time
// re-routing safe, and the one the chaos gate checks against a
// single-node ground truth.
//
// Two wirings:
//   * in-process (default): the router submits straight into each node's
//     PredictionServer — the TSan'd cluster_smoke shape;
//   * wire (`FleetOptions::wire`): each node additionally sits behind its
//     own net::Server on a loopback port and the router talks to it
//     through a RemoteBackend (pooled net::Client).  kill() then stops
//     the node's TCP server too (connections reset like a process death)
//     and restart() rebinds the *same* port — SO_REUSEADDR plus the
//     client pool's stale-FD eviction make re-adoption automatic.
//
// Reconfiguration: kill()/restart() are the *crash* path (abrupt, for
// chaos).  The *planned* path is drain_node() (router drain + engine
// shutdown), rejoin() (fresh engine, back on the ring) and
// rolling_restart() (drain→restart→rejoin every in-ring node in turn, the
// zero-downtime upgrade shape).  add_node() grows the fleet live.  All
// lifecycle entry points are safe to call concurrently — a Supervisor
// restarting node 2 while a chaos reaper kills node 0 and a drain
// scheduler cycles node 1 is the intended load.  Planned steps run one at
// a time (drain_node, rejoin, and each node's step of rolling_restart),
// and none of them drains the ring's last member: that drain is refused
// and reported, and the node keeps serving.
//
// Optional shaping wraps every node in a ShapedBackend service envelope
// (see backend.hpp for why the scaling bench needs one on a 1-core host).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/backend.hpp"
#include "cluster/router.hpp"
#include "core/unified_model.hpp"
#include "net/server.hpp"

namespace gppm::cluster {

struct FleetOptions {
  std::size_t backends = 2;
  /// Per-node serve options (worker pool, queue, cache).
  serve::ServerOptions server;
  /// Put each node behind gppm::net TCP (loopback) instead of in-process.
  bool wire = false;
  /// Wire mode: client options template (host/port are filled per node).
  net::ClientOptions client;
  /// Wire mode: fault injector for *client-side* socket I/O (net.reset
  /// bursts in the chaos profile).  May be nullptr.
  fault::FaultInjector* injector = nullptr;
  /// Service envelope; disabled when shape is nullopt-like (enabled flag).
  bool shaped = false;
  ShapingOptions shaping;
};

/// Outcome of one rolling_restart(): per-node drain reports plus the
/// aggregate verdict.
struct RollingRestartReport {
  /// One per node drained; refused nodes are not drained or restarted.
  std::vector<DrainReport> drains;
  /// In-ring nodes skipped because each was the ring's last member.
  std::size_t refused = 0;
  bool zero_loss = true;  ///< every drain completed with zero loss
  Duration duration = Duration::seconds(0.0);
};

class LocalFleet {
 public:
  /// Builds the nodes, joins them all to a fresh Router.
  LocalFleet(core::UnifiedModel power_model, core::UnifiedModel perf_model,
             FleetOptions options = {}, RouterOptions router_options = {});
  ~LocalFleet();

  LocalFleet(const LocalFleet&) = delete;
  LocalFleet& operator=(const LocalFleet&) = delete;

  Router& router() { return *router_; }
  std::size_t size() const;
  const std::string& name(std::size_t i) const;
  /// Wire mode only: the node's loopback port.
  std::uint16_t port(std::size_t i) const;

  /// Crash node i mid-run: prediction server drained and discarded; in
  /// wire mode its TCP server stops too (peers see resets/refusals).
  void kill(std::size_t i);
  /// Recover node i with a fresh copy of the same model pair; wire mode
  /// rebinds the same port.  Does NOT touch ring membership — pair with
  /// rejoin() after a drain.
  void restart(std::size_t i);
  bool alive(std::size_t i) const;

  /// Grow the fleet: build one more node (unique name, fresh port) and
  /// join it to the ring.  Returns its index.
  std::size_t add_node();
  /// Planned removal of node i: drain on the router (handoff), then shut
  /// the engine down.  `timeout` <= 0 uses the router default.  Refused,
  /// the node untouched, when it is the ring's last member.
  DrainReport drain_node(std::size_t i,
                         Duration timeout = Duration::seconds(0.0));
  /// Bring a drained/killed node back: fresh engine, rejoin the ring.
  /// No-op when the node is already a ring member.
  void rejoin(std::size_t i);
  /// True when node i is currently a ring member (draining counts as
  /// out).
  bool in_ring(std::size_t i) const;
  /// One supervised health probe of node i through its fronting backend.
  bool probe(std::size_t i) const;
  /// Drain → restart → rejoin every in-ring node, one at a time, under
  /// whatever traffic is running.  The zero-downtime upgrade shape.  A
  /// node that is the ring's last member when its turn comes is skipped.
  RollingRestartReport rolling_restart(
      Duration per_node_timeout = Duration::seconds(0.0));

  /// Model fingerprints as a single-node server would announce them.
  std::vector<serve::PredictionServer::LoadedModel> loaded_models() const;

  /// Bridge for net::Server: `gppm serve --cluster N` puts the whole
  /// fleet behind one port.  The fleet must outlive the bridge's use.
  net::ServeBridge bridge();

  /// Stop the router and every node.  Idempotent.
  void stop();

 private:
  struct Node {
    std::shared_ptr<LocalBackend> local;
    std::unique_ptr<net::Server> server;  ///< wire mode only
    std::uint16_t port = 0;               ///< pinned across restarts
    std::shared_ptr<Backend> fronting;    ///< what the router routes to
    /// Serializes kill/restart/rejoin on this node (a supervisor restart
    /// racing a chaos kill must interleave whole operations, not torn
    /// halves).
    std::mutex lifecycle;
  };

  /// Build a node (engine, optional wire front, shaping) but do not join
  /// it to the ring.
  std::unique_ptr<Node> make_node(const std::string& name);
  Node& node_at(std::size_t i) const;
  /// True when node i is the ring's only member (valid while
  /// planned_mutex_ is held).
  bool last_member(std::size_t i) const;

  FleetOptions options_;
  core::UnifiedModel power_;
  core::UnifiedModel perf_;
  /// unique_ptr so concurrent add_node() growth never moves a Node that
  /// kill/restart/probe hold a reference to.
  std::vector<std::unique_ptr<Node>> nodes_;
  mutable std::shared_mutex nodes_mutex_;
  std::size_t next_id_ = 0;
  std::vector<serve::PredictionServer::LoadedModel> models_;
  std::unique_ptr<Router> router_;
  bool stopped_ = false;
  /// Serializes planned membership steps, so no two of them act on one
  /// view of the ring.
  std::mutex planned_mutex_;
};

}  // namespace gppm::cluster
