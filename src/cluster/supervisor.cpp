#include "cluster/supervisor.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "fault/plan.hpp"

namespace gppm::cluster {

namespace {

std::chrono::steady_clock::duration to_steady(Duration d) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(d.as_seconds()));
}

}  // namespace

Supervisor::Supervisor(LocalFleet& fleet, SupervisorOptions options)
    : fleet_(fleet),
      options_(options),
      root_rng_(options.seed),
      scope_([this](obs::MetricsSnapshot& rows) {
        const SupervisorStats s = stats();
        rows.add_counter("cluster.supervisor.probes", s.probes);
        rows.add_counter("cluster.supervisor.probe_failures",
                         s.probe_failures);
        rows.add_counter("cluster.supervisor.probes_lost", s.probes_lost);
        rows.add_counter("cluster.supervisor.restarts", s.restarts);
        rows.add_counter("cluster.supervisor.budget_exhausted",
                         s.budget_exhausted);
        rows.add_histogram("cluster.supervisor.backoff_ms", backoff_ms_);
      }) {
  GPPM_CHECK(options_.failure_threshold >= 1,
             "supervisor failure_threshold must be >= 1");
  GPPM_CHECK(options_.restart_budget >= 1,
             "supervisor restart_budget must be >= 1");
  GPPM_CHECK(options_.jitter >= 0.0 && options_.jitter < 1.0,
             "supervisor jitter must be in [0, 1)");
  GPPM_CHECK(options_.probe_interval.as_seconds() > 0.0,
             "supervisor probe_interval must be > 0");
  thread_ = std::thread([this] { loop(); });
}

Supervisor::~Supervisor() { stop(); }

void Supervisor::stop() {
  if (stopped_.exchange(true)) return;
  if (thread_.joinable()) thread_.join();
}

void Supervisor::loop() {
  const auto interval = to_steady(options_.probe_interval);
  const auto tick = std::chrono::milliseconds(2);
  auto next_round = std::chrono::steady_clock::now();
  while (!stopped_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() < next_round) {
      std::this_thread::sleep_for(tick);
      continue;
    }
    next_round = std::chrono::steady_clock::now() + interval;

    // The fleet only grows, and indices are stable, so sizing the state
    // table up lazily is all add_node() support costs.
    const std::size_t count = fleet_.size();
    while (states_.size() < count) {
      NodeState state;
      state.backoff_s = options_.initial_backoff.as_seconds();
      state.rng = root_rng_.fork(states_.size());
      states_.push_back(state);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (stopped_.load(std::memory_order_acquire)) return;
      supervise(i);
    }
  }
}

void Supervisor::supervise(std::size_t i) {
  NodeState& state = states_[i];
  if (!fleet_.in_ring(i)) {
    // Off the ring = planned removal (drain in progress or parked);
    // restarting it would fight the drain path.
    skipped_drained_.fetch_add(1);
    state.consecutive_failures = 0;
    return;
  }

  bool up = false;
  if (options_.injector != nullptr &&
      options_.injector->should_fire(fault::kSiteSupervisorProbe)) {
    // The monitoring plane lies: the probe is lost, the node may be fine.
    probes_lost_.fetch_add(1);
  } else {
    up = fleet_.probe(i);
  }
  probes_.fetch_add(1);

  if (up) {
    state.consecutive_failures = 0;
    // A healthy answer refills the budget and resets the backoff: the
    // budget bounds restart storms, not total restarts over a long run.
    state.restarts_used = 0;
    state.backoff_s = options_.initial_backoff.as_seconds();
    state.flagged_unrecoverable = false;
    return;
  }

  ++state.consecutive_failures;
  probe_failures_.fetch_add(1);
  if (state.consecutive_failures < options_.failure_threshold) return;

  if (state.restarts_used >= options_.restart_budget) {
    if (!state.flagged_unrecoverable) {
      state.flagged_unrecoverable = true;
      budget_exhausted_.fetch_add(1);
    }
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < state.next_attempt) return;  // still backing off

  try {
    fleet_.restart(i);
  } catch (const std::exception&) {
    // Restart itself failed (bind refused, engine load error): treated
    // exactly like a failed probe — backoff advances below.
  }
  ++state.restarts_used;
  restarts_.fetch_add(1);
  state.consecutive_failures = 0;  // give the fresh engine a probe cycle

  // Jittered exponential backoff before any further attempt.
  const double jittered =
      state.backoff_s *
      state.rng.uniform(1.0 - options_.jitter, 1.0 + options_.jitter);
  backoff_ms_.record(jittered * 1e3);
  state.next_attempt = now + to_steady(Duration::seconds(jittered));
  state.backoff_s =
      std::min(state.backoff_s * 2.0, options_.max_backoff.as_seconds());
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.probes = probes_.load();
  s.probe_failures = probe_failures_.load();
  s.probes_lost = probes_lost_.load();
  s.restarts = restarts_.load();
  s.skipped_drained = skipped_drained_.load();
  s.budget_exhausted = budget_exhausted_.load();
  return s;
}

}  // namespace gppm::cluster
