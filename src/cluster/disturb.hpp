// cluster::FleetDisturber — the fleet disturbances a load run plays out
// under, on their own threads, until stop():
//
//   * the chaos reaper (`kills`) kills and restarts nodes in the order a
//     seeded ChaosSchedule draws them, so one seed disturbs the same nodes
//     in the same order run to run;
//   * the drain scheduler (`drain_every` > 0) drains and rejoins nodes on
//     a second seeded schedule, one planned handoff per interval;
//   * the roller (`rolling`) cycles LocalFleet::rolling_restart() —
//     drain -> restart -> rejoin of every node — and always finishes at
//     least one full sweep, however early stop() comes.
//
// Under `supervised` a cluster::Supervisor owns recovery: the reaper only
// kills (the schedule still emits its Restart events, so the event log of
// a supervised run equals the unsupervised one) and paces its kills to
// leave room for probe detection plus backoff.
//
// Pacing is fixed: 40 ms after a kill (250 ms supervised), 60 ms after a
// restart, 10 ms between rolling sweeps.  Every wait polls stop() and
// shutdown_requested() every 10 ms.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/fleet.hpp"
#include "cluster/schedule.hpp"

namespace gppm::cluster {

struct DisturberOptions {
  std::uint64_t seed = 42;
  /// Run the chaos reaper (needs a fleet of >= 2 nodes).
  bool kills = false;
  /// One planned drain or rejoin per interval; zero = no drain scheduler
  /// (needs a fleet of >= 2 nodes).
  Duration drain_every;
  /// Cycle rolling restarts.
  bool rolling = false;
  /// A Supervisor restarts what the reaper kills.
  bool supervised = false;
};

/// What the disturbers did.
struct DisturbReport {
  std::uint64_t kills = 0;         ///< reaper kills
  std::uint64_t drains = 0;        ///< drain-scheduler drains
  std::uint64_t lossy_drains = 0;  ///< of those, drains that lost requests
  std::uint64_t sweeps = 0;        ///< full rolling sweeps
  std::uint64_t sweep_drains = 0;  ///< node drains inside those sweeps
  std::uint64_t lossy_sweeps = 0;  ///< sweeps with a drain that lost requests
  /// The reaper's events, then the drain scheduler's, one per line.
  std::string event_log;
};

class FleetDisturber {
 public:
  /// Starts the enabled disturbers at once.  The fleet must outlive this.
  FleetDisturber(LocalFleet& fleet, DisturberOptions options);
  /// Stops and joins like stop(), without reporting.
  ~FleetDisturber();

  FleetDisturber(const FleetDisturber&) = delete;
  FleetDisturber& operator=(const FleetDisturber&) = delete;

  /// Stop every disturber, join its thread and report.  Rethrows the
  /// first exception a disturber thread ended with.  Idempotent.
  DisturbReport stop();

 private:
  /// Start `loop` on its own thread; an exception ends the loop and is
  /// kept for stop().
  std::thread start(void (FleetDisturber::*loop)());
  void join();
  bool running() const;
  /// Sleep `total` in 10 ms ticks while running().
  void paced_sleep(std::chrono::milliseconds total) const;
  void reap();
  void schedule_drains();
  void roll();

  LocalFleet& fleet_;
  DisturberOptions options_;
  std::atomic<bool> stopping_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
  ChaosSchedule reaper_schedule_;
  ChaosSchedule drain_schedule_;
  // Each count is written only by its own thread and read after the join.
  DisturbReport counts_;
  std::thread reaper_;
  std::thread drainer_;
  std::thread roller_;
};

}  // namespace gppm::cluster
