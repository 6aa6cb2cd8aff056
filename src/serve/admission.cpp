#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gppm::serve {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  // Every comparison below is written so NaN fails it: NaN limits would
  // otherwise slip through std::clamp and pin the AIMD window open (every
  // `in_flight + 1 > limit` check is false against NaN — unbounded
  // admission) or shut.  Typed errors at construction beat either.
  GPPM_CHECK(std::isfinite(options_.min_limit) && options_.min_limit >= 1.0,
             "admission min_limit must be finite and >= 1");
  GPPM_CHECK(std::isfinite(options_.max_limit) &&
                 options_.max_limit >= options_.min_limit,
             "admission max_limit must be finite and >= min_limit");
  GPPM_CHECK(std::isfinite(options_.initial_limit) &&
                 options_.initial_limit >= 1.0,
             "admission initial_limit must be finite and >= 1");
  GPPM_CHECK(options_.decrease > 0.0 && options_.decrease < 1.0,
             "admission decrease factor must be in (0, 1)");
  GPPM_CHECK(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
             "admission ewma_alpha must be in (0, 1]");
  GPPM_CHECK(std::isfinite(options_.deadline_headroom) &&
                 options_.deadline_headroom > 0.0,
             "admission deadline_headroom must be finite and > 0");
  set_limit_locked(std::clamp(options_.initial_limit, options_.min_limit,
                              options_.max_limit));
}

void AdmissionController::set_limit_locked(double limit) {
  limit_ = limit;
  limit_gauge_.set(static_cast<std::int64_t>(limit));
}

bool AdmissionController::try_acquire(Duration deadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<double>(in_flight_.value()) + 1.0 > limit_) {
    ++stats_.shed_limit;
    return false;
  }
  if (deadline.as_seconds() > 0.0 && ewma_s_ > 0.0) {
    // Estimated completion time for a request entering now: the smoothed
    // service latency inflated by how full the window already is.
    const double estimate =
        ewma_s_ *
        (1.0 + static_cast<double>(in_flight_.value()) / limit_);
    if (estimate > deadline.as_seconds() * options_.deadline_headroom) {
      ++stats_.shed_deadline;
      return false;
    }
  }
  in_flight_.add(1);
  ++stats_.admitted;
  return true;
}

void AdmissionController::release_locked() {
  if (in_flight_.value() > 0) in_flight_.add(-1);
}

void AdmissionController::observe_locked(double seconds) {
  if (!(seconds > 0.0)) return;
  ewma_s_ = ewma_s_ == 0.0
                ? seconds
                : (1.0 - options_.ewma_alpha) * ewma_s_ +
                      options_.ewma_alpha * seconds;
}

void AdmissionController::release_success(Duration latency) {
  std::lock_guard<std::mutex> lock(mutex_);
  release_locked();
  observe_locked(latency.as_seconds());
  // Additive increase: +1 per limit-sized window of successes, so the
  // limit climbs one unit per "round trip" like a congestion window.
  set_limit_locked(
      std::min(options_.max_limit, limit_ + 1.0 / std::max(limit_, 1.0)));
}

void AdmissionController::release_congestion(Duration latency) {
  std::lock_guard<std::mutex> lock(mutex_);
  release_locked();
  observe_locked(latency.as_seconds());
  // One decrease per latency window: a burst of simultaneous blowouts is
  // one congestion event, not a collapse to min_limit.
  const auto now = Clock::now();
  const double window_s = std::max(ewma_s_, 0.010);
  if (now - last_decrease_ <
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(window_s))) {
    return;
  }
  last_decrease_ = now;
  set_limit_locked(std::max(options_.min_limit, limit_ * options_.decrease));
  ++stats_.backoffs;
}

void AdmissionController::release_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  release_locked();
}

double AdmissionController::limit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limit_;
}

std::int64_t AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_.value();
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmissionStats s = stats_;
  s.limit = limit_;
  s.in_flight = in_flight_.value();
  s.ewma_latency_s = ewma_s_;
  return s;
}

void AdmissionController::add_rows(obs::MetricsSnapshot& rows) const {
  std::lock_guard<std::mutex> lock(mutex_);
  rows.add_counter("serve.admission.admitted", stats_.admitted);
  rows.add_counter("serve.admission.shed_limit", stats_.shed_limit);
  rows.add_counter("serve.admission.shed_deadline", stats_.shed_deadline);
  rows.add_counter("serve.admission.backoffs", stats_.backoffs);
  rows.add_gauge("serve.admission.limit", limit_gauge_);
  rows.add_gauge("serve.admission.in_flight", in_flight_);
}

}  // namespace gppm::serve
