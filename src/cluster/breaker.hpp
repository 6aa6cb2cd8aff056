// Per-backend circuit breaker — the router's memory of who is failing.
//
// Classic three-state machine:
//
//   Closed ──(failure_threshold consecutive failures)──▶ Open
//   Open ──(cooldown elapses)──▶ HalfOpen
//   HalfOpen ──(half_open_successes successes)──▶ Closed
//   HalfOpen ──(any failure)──▶ Open (cooldown restarts)
//
// Closed admits everything; Open admits nothing (the router routes around
// the backend without spending a connection attempt on it); HalfOpen
// admits a bounded number of probes so recovery is discovered without a
// thundering herd.  Time is passed in by the caller as a steady_clock
// time_point, so the transition tests drive the clock instead of
// sleeping.
//
// Thread-safe: every method takes the internal mutex; calls are cheap
// enough for the predict hot path (one lock, no allocation).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace gppm::cluster {

enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

std::string to_string(BreakerState state);

struct BreakerOptions {
  /// Consecutive failures that trip Closed -> Open.
  int failure_threshold = 3;
  /// How long Open refuses before probing again.
  std::chrono::milliseconds cooldown{500};
  /// Successful probes required to close from HalfOpen.
  int half_open_successes = 1;
  /// Probes admitted per HalfOpen episode before further allow() calls
  /// are refused (outcomes still pending).
  int half_open_probes = 2;
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(BreakerOptions options = {});

  /// May a request be sent now?  Open transitions to HalfOpen here once
  /// the cooldown has elapsed; HalfOpen admits up to half_open_probes
  /// callers.
  bool allow(Clock::time_point now = Clock::now());

  void record_success(Clock::time_point now = Clock::now());
  /// True when this failure tripped the breaker Open.
  bool record_failure(Clock::time_point now = Clock::now());

  BreakerState state(Clock::time_point now = Clock::now()) const;

  /// Closed/HalfOpen -> Open transitions so far.
  std::uint64_t opens() const;

 private:
  void open(Clock::time_point now);

  BreakerOptions options_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  int half_open_inflight_ = 0;
  int half_open_successes_ = 0;
  Clock::time_point opened_at_{};
  std::uint64_t opens_ = 0;
};

}  // namespace gppm::cluster
