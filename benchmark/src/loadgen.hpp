// Load generation and latency statistics for the end-to-end benchmark.
//
// Every load phase is a closed loop: each generator thread has one call in
// flight and sends the next as soon as the last returns, for a fixed wall
// time.  A slow host therefore receives less load instead of building a
// queue; an open loop at a fixed rate on a shared 4-vCPU host collapsed
// into queueing whenever a neighbour took the CPU, and then measured the
// neighbour.
//
// The whole benchmark process runs on one CPU (pin_to_one_cpu), generator
// threads and the program's own threads alike.  Spread over the host's
// vCPUs, every handoff between two threads woke another vCPU, and on a
// shared VM that wake-up took from 20 us to milliseconds depending on what
// the neighbours were doing: the same code read 16-55% apart with and
// without busy neighbours, against 2-5% on one CPU.
//
// Generator threads set a 1 ns timer slack, so that any sleep in the
// calls they make (a client's backoff, a router's poll) is not stretched
// by the kernel's default 50 us slack.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace gppm::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(q * n).  q in (0, 1]; 0 for an empty sample.
double percentile(const std::vector<double>& sorted, double q);

/// Samples ranked strictly above the q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// 1-based rank of a sample's tail: the highest percentile with at least
/// ten samples beyond it, never below the median and capped at p90.  On a
/// shared VM the p99 of identical runs moves by a quarter or more with the
/// hypervisor's wake-up latency; p90 repeats.  Continuous in n, so a run
/// that completes a few more operations does not jump to another
/// percentile.
std::size_t tail_rank(std::size_t n);

/// Median and tail of one timing sample, with the sample count.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.5;  ///< the tail's percentile, tail_rank / count
  double tail = 0.0;
  double p99 = 0.0;  ///< reported for reference, not as the tail
};
LatencySummary summarize(std::vector<double> samples);

/// The median over `slices` of their p50s, tails and p99s (count = the
/// smallest slice's), so a burst of host noise inside one slice does not
/// move the result.
LatencySummary median_over(const std::vector<LatencySummary>& slices);

/// Confine the calling thread, and every thread it starts from now on, to
/// the highest-numbered CPU it may run on, so that every run uses the same
/// one.  Returns that CPU.  Call it first in main, before any thread
/// starts.  Throws std::system_error when the affinity cannot be set.
int pin_to_one_cpu();

/// Set the calling thread's timer slack to 1 ns.
void set_fine_timer_slack();
/// The calling thread's timer slack in nanoseconds.
unsigned long timer_slack_ns();

/// What one generator call did.
struct Outcome {
  std::uint32_t requests = 1;
  std::uint32_t failed = 0;
};

struct ClosedLoopResult {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  double throughput() const { return seconds > 0 ? requests / seconds : 0.0; }
};

namespace detail {
/// Start `threads` generator threads running body(t), join them all, and
/// rethrow the first exception any of them raised.
template <class Body>
void run_threads(std::size_t threads, Body&& body) {
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        set_fine_timer_slack();
        body(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}
}  // namespace detail

/// Closed loop: every thread calls send(thread, call_index) back to back
/// until `seconds` have passed.  The phase ends when the last thread's
/// final call returns.
template <class Send>
ClosedLoopResult run_closed_loop(double seconds, std::size_t threads,
                                 Send&& send) {
  std::vector<ClosedLoopResult> per_thread(threads);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  detail::run_threads(threads, [&](std::size_t t) {
    ClosedLoopResult mine;  // local: neighbours' counters share cache lines
    for (std::uint64_t k = 0; Clock::now() < end; ++k) {
      const Outcome o = send(t, k);
      mine.requests += o.requests;
      mine.failed += o.failed;
    }
    per_thread[t] = mine;
  });
  ClosedLoopResult result;
  result.seconds = seconds_between(start, Clock::now());
  for (const ClosedLoopResult& r : per_thread) {
    result.requests += r.requests;
    result.failed += r.failed;
  }
  return result;
}

}  // namespace gppm::benchmark
