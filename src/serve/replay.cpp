#include "serve/replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "serve/server.hpp"

namespace gppm::serve {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

std::uint64_t ReplayResult::count(ResponseStatus status) const {
  const auto it = statuses.find(status);
  return it == statuses.end() ? 0 : it->second;
}

double ReplayResult::rps() const {
  return static_cast<double>(answered()) / elapsed_seconds;
}

ReplayResult replay(const std::vector<Request>& trace, const Call& call,
                    ReplayOptions options, const std::vector<Response>& truth) {
  GPPM_CHECK(options.workers > 0, "replay needs at least one worker");
  GPPM_CHECK(truth.empty() || truth.size() == trace.size(),
             "replay truth must hold one answer per trace entry");
  using Clock = std::chrono::steady_clock;

  ReplayResult result;
  std::mutex merge_mutex;
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(options.workers);
  for (std::size_t w = 0; w < options.workers; ++w) {
    workers.emplace_back([&] {
      ReplayResult local;
      for (std::size_t i = next.fetch_add(1); i < trace.size();
           i = next.fetch_add(1)) {
        if (shutdown_requested()) break;  // drain: start nothing new
        if (options.rate > 0.0) {
          std::this_thread::sleep_until(
              start + std::chrono::ceil<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / options.rate)));
        }
        const Clock::time_point t0 = Clock::now();
        Response r;
        try {
          r = call(trace[i]);
        } catch (...) {
          ++local.failed;
          continue;
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        local.latencies.push_back(seconds);
        ++local.statuses[r.status];
        if (!r.ok()) continue;
        local.ok_latencies.push_back(seconds);
        if (!truth.empty() && !bit_identical(r, truth[i])) ++local.divergent;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      result.latencies.insert(result.latencies.end(), local.latencies.begin(),
                              local.latencies.end());
      result.ok_latencies.insert(result.ok_latencies.end(),
                                 local.ok_latencies.begin(),
                                 local.ok_latencies.end());
      for (const auto& [status, count] : local.statuses) {
        result.statuses[status] += count;
      }
      result.failed += local.failed;
      result.divergent += local.divergent;
    });
  }
  for (std::thread& t : workers) t.join();
  result.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(result.latencies.begin(), result.latencies.end());
  std::sort(result.ok_latencies.begin(), result.ok_latencies.end());
  return result;
}

std::vector<Response> reference_answers(const std::vector<Request>& trace,
                                        const core::UnifiedModel& power,
                                        const core::UnifiedModel& perf) {
  PredictionServer reference;
  reference.load_models(power, perf);
  std::vector<Response> truth;
  truth.reserve(trace.size());
  for (const Request& r : trace) truth.push_back(reference.submit(r).get());
  return truth;
}

}  // namespace gppm::serve
