// serve::replay, the shared load driver: closed- and open-loop index
// coverage and pacing, the divergence and throw accounting, and the exact
// rank percentile.  Every call here is a fake: replay only sees a
// Request -> Response function.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "serve/replay.hpp"

namespace gppm::serve {
namespace {

/// A trace whose request i carries i in its tenant field, so a fake call
/// can tell which trace index it was handed.
std::vector<Request> indexed_trace(std::size_t n) {
  std::vector<Request> trace(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].tenant = static_cast<std::uint32_t>(i);
  }
  return trace;
}

Response ok_answer(const Request& r) {
  Response answer;
  answer.status = ResponseStatus::Ok;
  answer.power_watts = 100.0 + r.tenant;
  answer.time_seconds = 0.5;
  answer.energy_joules = answer.power_watts * 0.5;
  return answer;
}

TEST(ServeReplay, ClosedLoopCallsEveryTraceIndexExactlyOnce) {
  constexpr std::size_t kRequests = 500;
  const std::vector<Request> trace = indexed_trace(kRequests);
  std::vector<std::atomic<int>> calls(kRequests);
  const ReplayResult result = replay(
      trace,
      [&](const Request& r) {
        calls[r.tenant].fetch_add(1);
        return ok_answer(r);
      },
      {/*workers=*/4});
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(result.answered(), kRequests);
  EXPECT_EQ(result.ok(), kRequests);
  EXPECT_EQ(result.count(ResponseStatus::Ok), kRequests);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.divergent, 0u);
  EXPECT_TRUE(std::is_sorted(result.latencies.begin(), result.latencies.end()));
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

TEST(ServeReplay, OpenLoopDepartsNoRequestBeforeItsSlot) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kRequests = 40;
  constexpr double kRate = 400.0;  // one departure every 2.5 ms
  const std::vector<Request> trace = indexed_trace(kRequests);
  std::vector<Clock::time_point> departed(kRequests);
  std::mutex mutex;
  // The replay reads its start after this, so start + i/rate is never
  // earlier than before + i/rate.
  const Clock::time_point before = Clock::now();
  const ReplayResult result = replay(
      trace,
      [&](const Request& r) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        departed[r.tenant] = now;
        return ok_answer(r);
      },
      {/*workers=*/4, kRate});
  ASSERT_EQ(result.answered(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::chrono::duration<double> slot(static_cast<double>(i) / kRate);
    EXPECT_GE(departed[i] - before, slot) << "request " << i;
  }
  EXPECT_GE(result.elapsed_seconds,
            static_cast<double>(kRequests - 1) / kRate);
}

TEST(ServeReplay, OneFlippedBitIsOneDivergenceAndRefusalsAreNone) {
  constexpr std::size_t kRequests = 64;
  const std::vector<Request> trace = indexed_trace(kRequests);
  std::vector<Response> truth;
  for (const Request& r : trace) truth.push_back(ok_answer(r));
  const ReplayResult result = replay(
      trace,
      [&](const Request& r) {
        Response answer = ok_answer(r);
        if (r.tenant == 7) {
          // The lowest mantissa bit of one Ok answer.
          answer.power_watts = std::bit_cast<double>(
              std::bit_cast<std::uint64_t>(answer.power_watts) ^ 1u);
        } else if (r.tenant % 10 == 3) {
          // Refusals carry no prediction, so they never diverge.
          answer = Response{};
          answer.status = ResponseStatus::Overloaded;
        }
        return answer;
      },
      {/*workers=*/3}, truth);
  const std::uint64_t refused = 7;  // tenants 3, 13, ..., 63
  EXPECT_EQ(result.divergent, 1u);
  EXPECT_EQ(result.count(ResponseStatus::Overloaded), refused);
  EXPECT_EQ(result.ok(), kRequests - refused);
  EXPECT_EQ(result.answered(), kRequests);
  EXPECT_EQ(result.ok_latencies.size(), kRequests - refused);
}

TEST(ServeReplay, ThrowingCallCountsAsFailedWithoutLatency) {
  constexpr std::size_t kRequests = 50;
  const std::vector<Request> trace = indexed_trace(kRequests);
  const ReplayResult result = replay(
      trace,
      [](const Request& r) {
        if (r.tenant == 11) throw std::runtime_error("connection reset");
        return ok_answer(r);
      },
      {/*workers=*/2});
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.answered(), kRequests - 1);
  EXPECT_EQ(result.latencies.size(), kRequests - 1);
  EXPECT_EQ(result.ok(), kRequests - 1);
}

TEST(ServeReplay, PercentileIsTheRoundedRankOfTheSortedSample) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  const std::vector<double> one = {4.0};
  EXPECT_EQ(percentile(one, 0.0), 4.0);
  EXPECT_EQ(percentile(one, 0.99), 4.0);

  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0,
                                      6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_EQ(percentile(sorted, 0.0), 1.0);
  EXPECT_EQ(percentile(sorted, 1.0), 10.0);
  // round(q * (n - 1)) over n = 10: 0.5 -> rank 4.5 rounds up to 5.
  EXPECT_EQ(percentile(sorted, 0.5), 6.0);
  EXPECT_EQ(percentile(sorted, 0.95), 10.0);  // rank 8.55 -> 9
  EXPECT_EQ(percentile(sorted, 0.9), 9.0);    // rank 8.1 -> 8
  EXPECT_EQ(percentile(sorted, 0.25), 3.0);   // rank 2.25 -> 2
}

}  // namespace
}  // namespace gppm::serve
