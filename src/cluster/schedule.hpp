// cluster::ChaosSchedule — a seeded, deterministic stream of fleet
// disturbance events for the chaos reaper and drain scheduler of
// cluster::FleetDisturber (`gppm loadgen --cluster`,
// bench_cluster_throughput).
//
// Picking victims round-robin with wall-clock pacing made two "identical"
// chaos runs disturb different nodes at different times — impossible to
// compare or replay.  The schedule owns victim choice instead: every
// decision comes from one seeded Rng, each disturbance is paired with its
// recovery (kill → restart, drain → rejoin) before the same node is
// disturbed again, and every emitted event is appended to a log.  Two
// schedules with the same (seed, nodes, drains) options emit
// byte-identical logs — the property the determinism test pins and the
// contract behind `gppm loadgen --seed`.
//
// The schedule decides *what* happens, the caller decides *when*: pacing
// (sleep between events) stays in the disturber so the schedule is pure
// and replayable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace gppm::cluster {

enum class ChaosAction { Kill, Restart, Drain, Rejoin };

std::string to_string(ChaosAction action);

struct ChaosEvent {
  ChaosAction action = ChaosAction::Kill;
  std::size_t node = 0;

  std::string to_string() const;
};

class ChaosSchedule {
 public:
  struct Options {
    std::uint64_t seed = 42;
    std::size_t nodes = 2;
    /// Emit planned drains (drain → rejoin).
    bool drains = false;
    /// Emit crashes (kill → restart).  Both on = a mixed stream; at least
    /// one must be on.
    bool kills = true;
  };

  explicit ChaosSchedule(Options options);

  /// The next event in the stream.  A node that was disturbed recovers
  /// (Restart/Rejoin) before it can be disturbed again; the victim and
  /// the disturb-vs-recover choice are both drawn from the seeded Rng.
  ChaosEvent next();

  /// Every event emitted so far, in order.
  const std::vector<ChaosEvent>& log() const { return log_; }
  /// The log as one line per event (the determinism assertion compares
  /// these across same-seed runs).
  std::string log_string() const;

 private:
  enum class NodeMode { Up, Killed, Drained };

  Options options_;
  Rng rng_;
  std::vector<NodeMode> modes_;
  std::vector<ChaosEvent> log_;
};

}  // namespace gppm::cluster
