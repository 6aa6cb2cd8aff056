#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace gppm {
namespace {

TEST(ParallelFor, RunsEveryIterationExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> counts(n);
  parallel_for(n, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, SlotResultsMatchSerialLoop) {
  const std::size_t n = 512;
  std::vector<double> expected(n), got(n);
  const auto body = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 1; k <= i % 37 + 3; ++k) {
      acc += 1.0 / static_cast<double>(k * (i + 1));
    }
    return acc;
  };
  for (std::size_t i = 0; i < n; ++i) expected[i] = body(i);
  parallel_for(n, [&](std::size_t i) { got[i] = body(i); });
  EXPECT_EQ(got, expected);  // bit-identical, not just approximately equal
}

TEST(ParallelFor, HandlesZeroAndOneIteration) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 42) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock) {
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    // A nested parallel_for from (possibly) inside a pool worker must not
    // wait on the pool it occupies.
    parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ReusableAcrossManyCalls) {
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    parallel_for(32, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 50L * (31 * 32 / 2));
}

TEST(ParallelThreads, IsPositive) {
  EXPECT_GE(parallel_threads(), 1u);
}

TEST(ParallelThreads, BudgetTakesDigitsOnly) {
  // 0 sends parallel_threads() to hardware_concurrency.  The parse starts
  // no thread, so no value here can start a pool of its size.
  const struct {
    const char* text;
    std::size_t budget;
  } cases[] = {
      {"3", 3},    {"1", 1},    {"256", 256}, {"300", 256},
      {"99999999999999999999", 256},  // past size_t: clamps, not wraps
      {"-1", 0},   {"+3", 0},   {" 3", 0},    {"3 ", 0},
      {"0", 0},    {"", 0},     {"4x", 0},    {"0x4", 0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_thread_budget(c.text), c.budget) << '"' << c.text << '"';
  }
}

}  // namespace
}  // namespace gppm
