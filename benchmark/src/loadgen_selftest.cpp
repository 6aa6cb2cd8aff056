// Self-test of the benchmark's load generator and latency statistics.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "loadgen.hpp"

using namespace gppm::benchmark;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Percentile, NearestRankOnKnownInputs) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.75), 75.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(one_to(3), 0.5), 2.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SummarizeSortsItsInput) {
  const LatencySummary s = summarize({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.p50, 3.0);
}

TEST(Tail, IsTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_rank(100), 90u);  // p90 with exactly ten beyond
  EXPECT_EQ(tail_rank(1000), 900u);  // capped at p90
  EXPECT_EQ(tail_rank(95), 85u);
  EXPECT_EQ(tail_rank(20), 10u);
  EXPECT_EQ(tail_rank(15), 8u);  // never below the median
  EXPECT_EQ(tail_rank(1), 1u);
  for (std::size_t n = 20; n < 5000; ++n) {
    const std::size_t rank = tail_rank(n);
    const auto p90 =
        static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
    EXPECT_GE(n - rank, 10u) << "n=" << n;
    // Either exactly ten beyond, or held at the p90 cap.
    EXPECT_TRUE(n - rank == 10 || rank == p90) << "n=" << n;
  }
  const LatencySummary s = summarize(one_to(100));
  EXPECT_EQ(s.tail_q, 0.9);
  EXPECT_EQ(s.tail, 90.0);
  EXPECT_EQ(samples_beyond(100, s.tail_q), 10u);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(summarize(one_to(95)).tail, 85.0);
}

TEST(Slices, OneNoisySliceDoesNotMoveTheMedians) {
  std::vector<LatencySummary> slices;
  for (int w = 0; w < 6; ++w) {
    std::vector<double> v = one_to(1000);
    if (w == 2) {
      for (double& x : v) x *= 100.0;
    }
    slices.push_back(summarize(v));
  }
  slices[4] = summarize(one_to(800));
  const LatencySummary s = median_over(slices);
  EXPECT_EQ(s.count, 800u);  // the smallest slice
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_q, 0.9);
  EXPECT_EQ(s.tail, 900.0);
  EXPECT_EQ(s.p99, 990.0);
}

TEST(ClosedLoop, AtMostOneCallInFlightPerThread) {
  std::atomic<int> in_flight{0};
  std::atomic<int> most{0};
  const ClosedLoopResult r =
      run_closed_loop(0.05, 3, [&](std::size_t, std::uint64_t) {
        const int now = ++in_flight;
        int seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        --in_flight;
        return Outcome{2, 1};
      });
  EXPECT_GE(most.load(), 1);
  EXPECT_LE(most.load(), 3);
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.failed * 2, r.requests);  // every Outcome is counted
  EXPECT_GE(r.seconds, 0.05);
}

TEST(ClosedLoop, AStallShowsInTheStalledCallAndDelaysTheRest) {
  // One thread for 0.1 s; call 10 stalls 5 ms.  A closed loop does not
  // queue behind a stall: the stalled call is slow, the others are not,
  // and the loop completes fewer calls.
  std::vector<double> call_us;
  const ClosedLoopResult r =
      run_closed_loop(0.1, 1, [&](std::size_t, std::uint64_t k) {
        const Clock::time_point start = Clock::now();
        std::this_thread::sleep_for(std::chrono::microseconds(k == 10 ? 5000 : 100));
        call_us.push_back(seconds_between(start, Clock::now()) * 1e6);
        return Outcome{};
      });
  ASSERT_GT(call_us.size(), 20u);
  EXPECT_EQ(r.requests, call_us.size());
  EXPECT_GE(call_us[10], 5000.0);
  EXPECT_LT(summarize(call_us).p50, 5000.0);
  // The stall is wall time the loop spent on one call.
  double total_us = 0.0;
  for (double us : call_us) total_us += us;
  EXPECT_GE(total_us, 5000.0 + 100.0 * static_cast<double>(call_us.size() - 1));
  EXPECT_LE(total_us, r.seconds * 1e6);
}

TEST(Pinning, ThreadsStartedAfterwardsRunOnTheOneCpu) {
  const int cpu = pin_to_one_cpu();
  cpu_set_t seen;
  CPU_ZERO(&seen);
  std::thread([&] { sched_getaffinity(0, sizeof seen, &seen); }).join();
  EXPECT_EQ(CPU_COUNT(&seen), 1);
  EXPECT_TRUE(CPU_ISSET(cpu, &seen));
  // Pinning again picks the same CPU, so every run uses one.
  EXPECT_EQ(pin_to_one_cpu(), cpu);
}

TEST(TimerSlack, GeneratorThreadsRunWithOneNanosecond) {
  unsigned long slack = 0;
  run_closed_loop(0.001, 1, [&](std::size_t, std::uint64_t) {
    slack = timer_slack_ns();
    return Outcome{};
  });
  EXPECT_EQ(slack, 1u);
}
