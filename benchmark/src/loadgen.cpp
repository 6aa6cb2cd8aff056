#include "loadgen.hpp"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace gppm::benchmark {

namespace {
std::size_t rank_of(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

std::size_t tail_rank(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t median = rank_of(n, 0.5);
  const std::size_t p90 = rank_of(n, 0.9);
  return std::max(median, std::min(p90, n > 10 ? n - 10 : 0));
}

LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 0.5);
  const std::size_t rank = tail_rank(samples.size());
  s.tail_q = static_cast<double>(rank) / static_cast<double>(samples.size());
  s.tail = samples[rank - 1];
  s.p99 = percentile(samples, 0.99);
  return s;
}

LatencySummary median_over(const std::vector<LatencySummary>& slices) {
  std::vector<double> p50s, tails, p99s;
  LatencySummary out;
  for (const LatencySummary& s : slices) {
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    p99s.push_back(s.p99);
    out.count = p50s.size() == 1 ? s.count : std::min(out.count, s.count);
  }
  if (slices.empty()) return out;
  out.p50 = summarize(p50s).p50;
  out.tail_q = static_cast<double>(tail_rank(out.count)) /
               static_cast<double>(out.count);
  out.tail = summarize(tails).p50;
  out.p99 = summarize(p99s).p50;
  return out;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::system_error(errno, std::generic_category(), "sched_getaffinity");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) throw std::runtime_error("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::system_error(errno, std::generic_category(), "sched_setaffinity");
  }
  return cpu;
}

void set_fine_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

unsigned long timer_slack_ns() {
  return static_cast<unsigned long>(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
}

}  // namespace gppm::benchmark
