#include "cluster/breaker.hpp"

#include "common/error.hpp"

namespace gppm::cluster {

std::string to_string(BreakerState state) {
  switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerOptions options) : options_(options) {
  GPPM_CHECK(options_.failure_threshold > 0,
             "breaker failure threshold must be positive");
  GPPM_CHECK(options_.half_open_successes > 0,
             "breaker half-open success count must be positive");
  GPPM_CHECK(options_.half_open_probes > 0,
             "breaker half-open probe budget must be positive");
}

void CircuitBreaker::open(Clock::time_point now) {
  state_ = BreakerState::Open;
  opened_at_ = now;
  half_open_inflight_ = 0;
  half_open_successes_ = 0;
  ++opens_;
}

bool CircuitBreaker::allow(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      if (now - opened_at_ < options_.cooldown) return false;
      state_ = BreakerState::HalfOpen;
      half_open_inflight_ = 1;
      half_open_successes_ = 0;
      return true;
    case BreakerState::HalfOpen:
      if (half_open_inflight_ >= options_.half_open_probes) return false;
      ++half_open_inflight_;
      return true;
  }
  return false;
}

void CircuitBreaker::record_success(Clock::time_point now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mutex_);
  consecutive_failures_ = 0;
  if (state_ == BreakerState::HalfOpen) {
    if (half_open_inflight_ > 0) --half_open_inflight_;
    if (++half_open_successes_ >= options_.half_open_successes) {
      state_ = BreakerState::Closed;
      half_open_inflight_ = 0;
      half_open_successes_ = 0;
    }
  }
}

bool CircuitBreaker::record_failure(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::Closed:
      if (++consecutive_failures_ < options_.failure_threshold) return false;
      consecutive_failures_ = 0;
      open(now);
      return true;
    case BreakerState::HalfOpen:
      // One failed probe is proof enough: back to Open, cooldown restarts.
      open(now);
      return true;
    case BreakerState::Open:
      // Stragglers from requests launched before the trip; stay Open but
      // do not extend the cooldown (a recovering backend should not be
      // held hostage by old failures draining).
      return false;
  }
  return false;
}

BreakerState CircuitBreaker::state(Clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::Open && now - opened_at_ >= options_.cooldown) {
    // Report what allow() would see: the cooldown has lapsed, the next
    // caller becomes the half-open probe.
    return BreakerState::HalfOpen;
  }
  return state_;
}

std::uint64_t CircuitBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return opens_;
}

}  // namespace gppm::cluster
