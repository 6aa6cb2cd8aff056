#include "cluster/disturb.hpp"

#include "common/shutdown.hpp"

namespace gppm::cluster {

namespace {

using std::chrono::milliseconds;

constexpr milliseconds kTick{10};
constexpr milliseconds kAfterKill{40};
/// Supervised recovery needs detection (threshold probes) plus backoff
/// before the node returns.
constexpr milliseconds kAfterSupervisedKill{250};
constexpr milliseconds kAfterRestart{60};
constexpr milliseconds kBetweenSweeps{10};

}  // namespace

FleetDisturber::FleetDisturber(LocalFleet& fleet, DisturberOptions options)
    : fleet_(fleet),
      options_(options),
      reaper_schedule_(
          {options.seed, fleet.size(), /*drains=*/false, /*kills=*/true}),
      drain_schedule_(
          {options.seed, fleet.size(), /*drains=*/true, /*kills=*/false}) {
  if (options_.kills && fleet_.size() > 1) {
    reaper_ = start(&FleetDisturber::reap);
  }
  if (options_.drain_every > Duration() && fleet_.size() > 1) {
    drainer_ = start(&FleetDisturber::schedule_drains);
  }
  if (options_.rolling) roller_ = start(&FleetDisturber::roll);
}

FleetDisturber::~FleetDisturber() { join(); }

std::thread FleetDisturber::start(void (FleetDisturber::*loop)()) {
  return std::thread([this, loop] {
    try {
      (this->*loop)();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  });
}

void FleetDisturber::join() {
  stopping_.store(true);
  for (std::thread* t : {&reaper_, &drainer_, &roller_}) {
    if (t->joinable()) t->join();
  }
}

DisturbReport FleetDisturber::stop() {
  join();
  if (error_) std::rethrow_exception(error_);
  DisturbReport report = counts_;
  report.event_log =
      reaper_schedule_.log_string() + drain_schedule_.log_string();
  return report;
}

bool FleetDisturber::running() const {
  return !stopping_.load() && !shutdown_requested();
}

void FleetDisturber::paced_sleep(milliseconds total) const {
  for (milliseconds left = total; running() && left > milliseconds(0);
       left -= kTick) {
    std::this_thread::sleep_for(kTick);
  }
}

void FleetDisturber::reap() {
  while (running()) {
    const ChaosEvent event = reaper_schedule_.next();
    if (event.action == ChaosAction::Kill) {
      fleet_.kill(event.node);
      ++counts_.kills;
      paced_sleep(options_.supervised ? kAfterSupervisedKill : kAfterKill);
    } else if (event.action == ChaosAction::Restart) {
      if (!options_.supervised) fleet_.restart(event.node);
      paced_sleep(kAfterRestart);
    }
  }
}

void FleetDisturber::schedule_drains() {
  const milliseconds interval = std::chrono::ceil<milliseconds>(
      std::chrono::duration<double>(options_.drain_every.as_seconds()));
  while (running()) {
    paced_sleep(interval);
    if (!running()) break;
    const ChaosEvent event = drain_schedule_.next();
    if (event.action == ChaosAction::Drain) {
      const DrainReport drain = fleet_.drain_node(event.node);
      if (drain.refused) {
        ++counts_.refused_drains;
      } else {
        ++counts_.drains;
        if (!drain.zero_loss) ++counts_.lossy_drains;
      }
    } else if (event.action == ChaosAction::Rejoin) {
      fleet_.rejoin(event.node);
    }
  }
}

void FleetDisturber::roll() {
  // At least one full sweep, so every node was drained under fire.
  do {
    const RollingRestartReport report = fleet_.rolling_restart();
    ++counts_.sweeps;
    counts_.sweep_drains += report.drains.size();
    counts_.refused_sweep_drains += report.refused;
    if (!report.zero_loss) ++counts_.lossy_sweeps;
    paced_sleep(kBetweenSweeps);
  } while (running());
}

}  // namespace gppm::cluster
