#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace gppm {

namespace {

thread_local bool tl_in_worker = false;

// Pool instruments, registered once and cached so the hot path is a single
// enabled-flag branch per record.
obs::Counter& loops_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("parallel.loops");
  return c;
}
obs::Counter& tasks_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("parallel.tasks");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("parallel.queue_depth");
  return g;
}
obs::Gauge& busy_workers_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("parallel.busy_workers");
  return g;
}

/// Lazily-started compute pool.  Holds parallel_threads() - 1 workers; the
/// thread that calls parallel_for contributes the remaining lane.
class ComputePool {
 public:
  static ComputePool& instance() {
    static ComputePool pool(parallel_threads() > 0 ? parallel_threads() - 1
                                                   : 0);
    return pool;
  }

  std::size_t workers() const { return threads_.size(); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
      queue_depth_gauge().set(static_cast<std::int64_t>(tasks_.size()));
    }
    cv_.notify_one();
  }

  ~ComputePool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

 private:
  explicit ComputePool(std::size_t n) {
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        tl_in_worker = true;
        for (;;) {
          std::function<void()> task;
          {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
            queue_depth_gauge().set(static_cast<std::int64_t>(tasks_.size()));
          }
          {
            obs::ObsSpan span("parallel.task");
            tasks_counter().add();
            busy_workers_gauge().add(1);
            task();
            busy_workers_gauge().add(-1);
          }
        }
      });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Shared state of one parallel_for call: dynamic index dispenser plus a
/// completion latch, with first-exception capture.
struct LoopState {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t active_runners = 0;
  std::exception_ptr error;

  void run_iterations() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        (*body)(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        return;
      }
    }
  }
};

}  // namespace

std::size_t parse_thread_budget(std::string_view text) {
  constexpr std::size_t kMaxThreads = 256;
  // Unlike strtoul, from_chars into an unsigned type takes no sign and no
  // leading space, so "-1" cannot wrap to the largest budget.
  const char* end = text.data() + text.size();
  std::size_t v = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (stop != end) return 0;
  if (ec == std::errc::result_out_of_range) return kMaxThreads;
  if (ec != std::errc()) return 0;
  return std::min(v, kMaxThreads);
}

std::size_t parallel_threads() {
  static const std::size_t cached = [] {
    if (const char* env = std::getenv("GPPM_THREADS")) {
      if (const std::size_t v = parse_thread_budget(env)) return v;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return cached;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const bool serial = n < 2 || tl_in_worker || parallel_threads() <= 1;
  if (serial) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  ComputePool& pool = ComputePool::instance();
  if (pool.workers() == 0) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  obs::ObsSpan span("parallel.for");
  loops_counter().add();
  auto state = std::make_shared<LoopState>();
  state->body = &body;
  state->n = n;

  // One runner per pool worker (capped at n-1: the caller is a runner too).
  std::size_t helpers = pool.workers();
  if (helpers > n - 1) helpers = n - 1;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->active_runners = helpers;
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] {
      state->run_iterations();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->active_runners == 0) state->done_cv.notify_all();
    });
  }

  state->run_iterations();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->active_runners == 0; });
    if (state->error) std::rethrow_exception(state->error);
  }
}

}  // namespace gppm
