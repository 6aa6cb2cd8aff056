#include "served.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>

#include "cluster/backend.hpp"
#include "cluster/router.hpp"
#include "dvfs/combos.hpp"
#include "loadgen.hpp"
#include "models.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace gppm::benchmark {

namespace {

constexpr sim::GpuModel kBoard = sim::GpuModel::GTX680;
/// Distinct requests generated per run; the load cycles through them.
constexpr std::size_t kTraceSize = 1024;
/// Requests per pipelined predict_batch call (wire-hot closed loop).
constexpr std::size_t kBatch = 32;
/// serve-cold replays every 16th Predict/Optimize answer on a reference.
constexpr std::uint64_t kColdCheckEvery = 16;
/// Traced runs record spans for every 8th request.
constexpr std::uint64_t kSpanEvery = 8;
/// The measured load is this many rounds of one throughput slice and one
/// latency slice; each metric is the median over its slices.
constexpr std::size_t kSlices = 24;
/// Shares of the run length: the warm-up, all throughput slices and all
/// latency slices.
constexpr double kWarmUpShare = 0.1;
constexpr double kThroughputShare = 0.4;
constexpr double kLatencyShare = 0.5;
static_assert(kWarmUpShare + kThroughputShare + kLatencyShare == 1.0);
constexpr std::size_t kMain = SpanRecorder::kMainSlot;

struct Spec {
  const char* name;
  Path path;
  double optimize_fraction;
  double govern_fraction;
  bool cold;  ///< every request a never-seen phase
};

constexpr Spec kSpecs[] = {
    // The wire is nearly all of a hot prediction's latency.
    {"wire-hot", Path::Wire, 0.0, 0.0, false},
    // Model evaluation, the all-pairs optimizer, the governor lock and the
    // cache write path, with no wire.
    {"serve-cold", Path::InProcess, 0.25, 0.10, true},
    // Ring pick, hedge timer and failover bookkeeping on top of serve.
    {"cluster-hot", Path::Cluster, 0.0, 0.0, false},
};
// An in-process submission consumes its request, and a cold request is
// built per call; Traffic relies on the one workload doing both.
static_assert(std::ranges::all_of(kSpecs, [](const Spec& s) {
  return s.cold == (s.path == Path::InProcess);
}));

const Spec& spec_of(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("not a served workload: " + name);
}

double us(Duration d) { return d.as_seconds() * 1e6; }

/// What a correct answer must reproduce exactly.
struct Digest {
  serve::ResponseStatus status = serve::ResponseStatus::Ok;
  sim::FrequencyPair pair;
  double power = 0.0, time = 0.0, energy = 0.0;
};

Digest digest(const serve::Response& r) {
  return {r.status, r.pair, r.power_watts, r.time_seconds, r.energy_joules};
}

bool same(const Digest& a, const Digest& b) {
  return a.status == b.status && a.pair == b.pair &&
         std::memcmp(&a.power, &b.power, sizeof(double)) == 0 &&
         std::memcmp(&a.time, &b.time, sizeof(double)) == 0 &&
         std::memcmp(&a.energy, &b.energy, sizeof(double)) == 0;
}

/// Perturb every counter by a factor unique to `id` — the perturbation
/// serve::synthetic_trace's counter_jitter applies — so the request is a
/// phase the cache has never seen.  Applied at send time because a trace
/// of a whole run's distinct phases would not fit in memory.
void make_fresh(serve::Request& r, std::uint64_t id) {
  const double factor = 1.0 + 1e-9 * static_cast<double>(id + 1);
  for (profiler::CounterReading& c : r.counters.counters) {
    c.total *= factor;
    c.per_second *= factor;
  }
}

/// Engine counters summed over the servers behind a stack.
struct ServeTotals {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  double batch_items = 0.0;
  std::size_t queue_high_water = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;

  void add(const serve::ServerMetrics& m) {
    requests += m.total_requests;
    batches += m.batches;
    batch_items += m.mean_batch_size * static_cast<double>(m.batches);
    queue_high_water = std::max(queue_high_water, m.queue_high_water);
    hits += m.cache.hits;
    misses += m.cache.misses;
    evictions += m.cache.evictions;
  }
};

/// The serving stack of one path, on library defaults.
class Stack {
 public:
  Stack(Path path, const core::UnifiedModel& power,
        const core::UnifiedModel& perf) {
    if (path == Path::Cluster) {
      // cluster::LocalFleet's in-process shape, assembled here so each
      // node's engine counters stay readable.
      router_ = std::make_unique<cluster::Router>();
      for (int i = 0; i < 2; ++i) {
        nodes_.push_back(std::make_shared<cluster::LocalBackend>(
            "node" + std::to_string(i), power, perf));
        router_->add_backend(nodes_.back());
      }
      return;
    }
    server_ = std::make_unique<serve::PredictionServer>();
    server_->load_models(power, perf);
    if (path == Path::Wire) {
      net_server_ = std::make_unique<net::Server>(*server_);
      net::ClientOptions options;
      options.port = net_server_->port();
      options.pool_size = kGenerators;
      client_ = std::make_unique<net::Client>(options);
    }
  }

  serve::PredictionServer& server() { return *server_; }
  net::Client& client() { return *client_; }
  cluster::Router& router() { return *router_; }

  ServeTotals serve_totals() const {
    ServeTotals totals;
    if (server_) totals.add(server_->metrics());
    for (const auto& node : nodes_) totals.add(node->server()->metrics());
    return totals;
  }
  std::uint64_t client_retries() const {
    if (!client_) return 0;
    const net::ClientStats s = client_->stats();
    return s.reconnects + s.transport_retries;
  }
  cluster::RouterStats router_stats() const {
    return router_ ? router_->stats() : cluster::RouterStats{};
  }

 private:
  // Destroyed bottom-up: the router before its nodes, the client before
  // the transport before the engine.
  std::unique_ptr<serve::PredictionServer> server_;
  std::unique_ptr<net::Server> net_server_;
  std::unique_ptr<net::Client> client_;
  std::vector<std::shared_ptr<cluster::LocalBackend>> nodes_;
  std::unique_ptr<cluster::Router> router_;
};

/// One call through a stack: its answer and the caller's wall time.
struct Call {
  serve::Response response;
  Clock::time_point start, end;
  bool threw = false;
};

/// Call `path` with `request`.  In-process submission takes the request by
/// value, so pass an rvalue to hand it over without a copy; the other
/// paths only read it.
template <class Request>
Call call(Path path, Stack& stack, Request&& request) {
  Call c;
  c.start = Clock::now();
  try {
    switch (path) {
      case Path::Wire:
        c.response = stack.client().predict(request);
        break;
      case Path::InProcess:
        c.response =
            stack.server().submit(std::forward<Request>(request)).get();
        break;
      case Path::Cluster:
        c.response = stack.router().predict(request);
        break;
    }
  } catch (const std::exception&) {
    c.threw = true;
  }
  c.end = Clock::now();
  return c;
}

const char* call_span_name(Path path) {
  switch (path) {
    case Path::Wire:
      return "net.Client::predict";
    case Path::InProcess:
      return "serve.PredictionServer::submit+get";
    case Path::Cluster:
      return "cluster.Router::predict";
  }
  return "";
}

/// Record a call span and, inside it, the engine's own time.  Only its
/// duration (Response::latency) is observable from outside, so that span
/// is drawn centred in the call.
void record_call(SpanRecorder& spans, std::size_t slot, Path path,
                 const Call& c, std::uint64_t parent, std::uint64_t request) {
  const std::uint64_t id = spans.add(slot, call_span_name(path), c.start,
                                     c.end, parent, request);
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(c.response.latency.as_seconds() / 2));
  const Clock::time_point mid = c.start + (c.end - c.start) / 2;
  spans.add(slot, "serve.PredictionServer", mid - half, mid + half, id,
            request);
}

struct PathSample {
  double wall_us = 0.0;
  double server_us = 0.0;
};

/// Add a load phase's requests to the run's totals.
void count(Result& result, const ClosedLoopResult& phase) {
  result.attempted += phase.requests;
  result.failed += phase.failed;
}

/// The load of one served workload against its stack.
class Traffic {
 public:
  Traffic(const Spec& spec, Stack& stack,
          const std::vector<serve::Request>& trace,
          const std::vector<std::vector<serve::Request>>& batches,
          const std::vector<Digest>& expected, SpanRecorder& spans)
      : spec_(spec),
        stack_(stack),
        trace_(trace),
        batches_(batches),
        expected_(expected),
        spans_(spans),
        pairs_(dvfs::configurable_pairs(kBoard)),
        prepared_(kGenerators),
        kept_(kGenerators),
        samples_(kGenerators) {
    if (spec_.cold) {
      for (std::size_t t = 0; t < kGenerators; ++t) prepare(t);
    }
  }

  /// kGenerators callers back to back; wire-hot pipelines its requests in
  /// predict_batch calls of kBatch.
  ClosedLoopResult throughput(double seconds, bool traced) {
    const std::uint64_t tag = ++phases_;
    return run_closed_loop(seconds, kGenerators,
                           [&](std::size_t t, std::uint64_t k) {
                             return throughput_call(t, k * kGenerators + t,
                                                    traced, tag);
                           });
  }

  /// One caller sending single requests back to back, every call timed.
  /// Counts the calls in `result`.
  LatencySummary latency(double seconds, bool traced, Result& result) {
    const std::uint64_t tag = ++phases_;
    std::vector<double> call_us;
    count(result, run_closed_loop(seconds, 1, [&](std::size_t, std::uint64_t k) {
            return single(0, k, traced, tag, &call_us);
          }));
    return summarize(std::move(call_us));
  }

  /// Replay the kept serve-cold answers on `reference`; each mismatch
  /// fails one request.
  void check_cold(serve::PredictionServer& reference, Result& result) {
    std::uint64_t checked = 0, wrong = 0;
    for (const auto& thread : kept_) {
      for (const Kept& k : thread) {
        serve::Request r = trace_[k.id % trace_.size()];
        make_fresh(r, k.id);
        if (!same(digest(reference.submit(std::move(r)).get()), k.answer)) {
          ++wrong;
        }
        ++checked;
      }
    }
    result.detail("cold_answers_replayed", static_cast<double>(checked),
                  "count");
    if (wrong > 0) {
      result.fail(std::to_string(wrong) + " of " + std::to_string(checked) +
                      " replayed answers differ from the reference server",
                  wrong);
    }
  }

  /// Wall and engine time of every traced call of the latency slices.
  std::vector<PathSample> samples() const {
    std::vector<PathSample> all;
    for (const auto& thread : samples_) {
      all.insert(all.end(), thread.begin(), thread.end());
    }
    return all;
  }

 private:
  /// A serve-cold request built ahead of its call.
  struct Prepared {
    serve::Request request;
    std::uint64_t id = 0;  ///< unique per fresh phase; picks its trace entry
  };
  struct Kept {
    std::uint64_t id;
    Digest answer;
  };

  /// Fill thread t's slot with a fresh serve-cold request.
  void prepare(std::size_t t) {
    Prepared& p = prepared_[t];
    p.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    p.request = trace_[p.id % trace_.size()];
    make_fresh(p.request, p.id);
  }

  /// Hot answers must equal the reference answer for their trace entry.
  /// Cold answers must be Ok and Govern must pick a TABLE III pair; every
  /// kColdCheckEvery-th Predict/Optimize answer is kept for replay.
  bool check(std::size_t t, const serve::Response& r, std::size_t base,
             std::uint64_t id) {
    if (!r.ok()) return false;
    if (!spec_.cold) return same(digest(r), expected_[base]);
    if (r.kind == serve::RequestKind::Govern) {
      return std::find(pairs_.begin(), pairs_.end(), r.pair) != pairs_.end();
    }
    if (id % kColdCheckEvery == 0) kept_[t].push_back({id, digest(r)});
    return true;
  }

  Outcome throughput_call(std::size_t t, std::uint64_t n, bool traced,
                          std::uint64_t tag) {
    if (spec_.path != Path::Wire) return single(t, n, traced, tag, nullptr);
    const std::size_t b = n % batches_.size();
    const Clock::time_point start = Clock::now();
    std::vector<serve::Response> replies;
    try {
      replies = stack_.client().predict_batch(batches_[b]);
    } catch (const std::exception&) {
      const auto size = static_cast<std::uint32_t>(batches_[b].size());
      return {size, size};
    }
    if (traced && n % kSpanEvery == 0) {
      spans_.add(t, "net.Client::predict_batch", start, Clock::now(), 0,
                 (tag << 32) | n);
    }
    Outcome o{static_cast<std::uint32_t>(replies.size()), 0};
    for (std::size_t m = 0; m < replies.size(); ++m) {
      if (!check(t, replies[m], b * kBatch + m, 0)) ++o.failed;
    }
    return o;
  }

  /// Send request n of thread t as one call and check the answer.  With
  /// `call_us`, time the call into it and, traced, keep its PathSample.
  Outcome single(std::size_t t, std::uint64_t n, bool traced,
                 std::uint64_t tag, std::vector<double>* call_us) {
    std::size_t base = 0;
    std::uint64_t id = 0;
    Call c;
    if (!spec_.cold) {
      base = n % trace_.size();
      c = call(spec_.path, stack_, trace_[base]);
    } else {
      // Build the next fresh phase while this one is in flight, so making
      // them costs the loop nothing.
      id = prepared_[t].id;
      c.start = Clock::now();
      try {
        std::future<serve::Response> answer =
            stack_.server().submit(std::move(prepared_[t].request));
        prepare(t);
        c.response = answer.get();
      } catch (const std::exception&) {
        c.threw = true;
        prepare(t);
      }
      c.end = Clock::now();
    }
    if (call_us) {
      call_us->push_back(seconds_between(c.start, c.end) * 1e6);
      if (traced && !c.threw) {
        samples_[t].push_back(
            {seconds_between(c.start, c.end) * 1e6, us(c.response.latency)});
      }
    }
    if (traced && n % kSpanEvery == 0) {
      record_call(spans_, t, spec_.path, c, 0, (tag << 32) | n);
    }
    const bool ok = !c.threw && check(t, c.response, base, id);
    return {1, ok ? 0u : 1u};
  }

  const Spec& spec_;
  Stack& stack_;
  const std::vector<serve::Request>& trace_;
  const std::vector<std::vector<serve::Request>>& batches_;
  const std::vector<Digest>& expected_;
  SpanRecorder& spans_;
  const std::vector<sim::FrequencyPair> pairs_;
  std::atomic<std::uint64_t> next_id_{0};
  std::uint64_t phases_ = 0;  ///< tags request ids with their phase
  std::vector<Prepared> prepared_;
  std::vector<std::vector<Kept>> kept_;
  std::vector<std::vector<PathSample>> samples_;
};

/// p50 of the call time, the engine time and their difference.
PathCosts costs_of(const std::vector<PathSample>& samples) {
  std::vector<double> wall, server, outside;
  for (const PathSample& s : samples) {
    wall.push_back(s.wall_us);
    server.push_back(s.server_us);
    outside.push_back(s.wall_us - s.server_us);
  }
  return {summarize(wall).p50, summarize(server).p50, summarize(outside).p50};
}

}  // namespace

PathCosts probe_path(Path path, const std::vector<serve::Request>& requests,
                     const core::UnifiedModel& power,
                     const core::UnifiedModel& perf, Result& out,
                     SpanRecorder& spans) {
  Stack stack(path, power, perf);
  std::vector<PathSample> samples;
  // One warm-up pass, then enough timed passes for 1000 samples.
  const std::size_t passes = 1 + (999 + requests.size()) / requests.size();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      // In-process submission takes its own copy, made before the clock
      // starts.
      serve::Request copy;
      if (path == Path::InProcess) copy = requests[i];
      const Call c = path == Path::InProcess
                         ? call(path, stack, std::move(copy))
                         : call(path, stack, requests[i]);
      if (pass == 0) continue;
      ++out.attempted;
      if (c.threw || !c.response.ok()) {
        ++out.failed;
        continue;
      }
      samples.push_back(
          {seconds_between(c.start, c.end) * 1e6, us(c.response.latency)});
      record_call(spans, kMain, path, c, 0,
                  (std::uint64_t{0xff} << 32) | samples.size());
    }
  }
  return costs_of(samples);
}

bool is_served_workload(const std::string& name) {
  return std::any_of(std::begin(kSpecs), std::end(kSpecs),
                     [&](const Spec& s) { return name == s.name; });
}

Result run_served(const RunConfig& config, SpanRecorder& spans) {
  const Spec& spec = spec_of(config.workload);
  Result result;
  result.workload = spec.name;

  // Inputs: the profiled phases of the board's suite and a trace drawn
  // from them with the run's seed.  Not part of setup.
  const serve::PhaseCorpus corpus = serve::build_phase_corpus(kBoard, true);
  serve::TraceOptions trace_options;
  trace_options.request_count = kTraceSize;
  trace_options.seed = config.seed;
  trace_options.optimize_fraction = spec.optimize_fraction;
  trace_options.govern_fraction = spec.govern_fraction;
  const std::vector<serve::Request> trace =
      serve::synthetic_trace(corpus, trace_options);
  std::vector<std::vector<serve::Request>> batches;
  if (spec.path == Path::Wire) {
    for (std::size_t b = 0; b < trace.size(); b += kBatch) {
      batches.emplace_back(trace.begin() + b,
                           trace.begin() + std::min(b + kBatch, trace.size()));
    }
  }
  const double rss_before_mib = proc_status_mib("VmRSS");

  // Setup: characterize, fit, start the stack.  Repeated; the last one
  // serves the run.  All repetitions come before the load: a stack rebuilt
  // mid-run left the memory its worker threads had freed unused, and
  // peak_rss_mb of serve-cold spread by 6% instead of 1%.
  std::optional<core::Dataset> dataset;
  std::optional<BoardFit> fit;
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    fit.reset();
    dataset.reset();
    ScopedSpan setup(spans, kMain, "setup");
    {
      ScopedSpan s(spans, kMain, "core.build_dataset", setup.id());
      dataset = characterize(kBoard);
    }
    fit = fit_board(*dataset, spans, setup.id());
    {
      ScopedSpan s(spans, kMain, "start serving stack", setup.id());
      stack = std::make_unique<Stack>(spec.path, fit->served_power(),
                                      fit->served_perf());
    }
    setup_s.push_back(seconds_between(setup.start(), Clock::now()));
  }

  // The reference every answer is checked against: one worker, no cache.
  serve::ServerOptions reference_options;
  reference_options.worker_threads = 1;
  reference_options.cache_capacity = 0;
  serve::PredictionServer reference(reference_options);
  reference.load_models(fit->served_power(), fit->served_perf());
  std::vector<Digest> expected;
  if (!spec.cold) {
    for (const serve::Request& r : trace) {
      expected.push_back(digest(reference.submit(r).get()));
    }
  }

  // The load: a warm-up, then kSlices rounds of a throughput slice and a
  // latency slice, so both metrics sample the host over the whole run.  A
  // traced run alternates untraced and traced throughput slices, whose
  // throughputs give the tracing overhead without the host's drift.
  const double s = config.seconds;
  Traffic traffic(spec, *stack, trace, batches, expected, spans);
  count(result, traffic.throughput(kWarmUpShare * s, false));
  const ServeTotals serve_before = stack->serve_totals();
  const std::uint64_t retries_before = stack->client_retries();
  const cluster::RouterStats router_before = stack->router_stats();
  std::vector<double> throughput, traced_throughput;
  std::vector<LatencySummary> latency_slices;
  for (std::size_t i = 0; i < kSlices; ++i) {
    const bool traced = config.traced && i % 2 == 1;
    const ClosedLoopResult slice =
        traffic.throughput(kThroughputShare * s / kSlices, traced);
    count(result, slice);
    (traced ? traced_throughput : throughput).push_back(slice.throughput());
    latency_slices.push_back(
        traffic.latency(kLatencyShare * s / kSlices, config.traced, result));
  }
  const ServeTotals serve_after = stack->serve_totals();
  const cluster::RouterStats router_after = stack->router_stats();
  const std::uint64_t retries = stack->client_retries() - retries_before;

  if (spec.cold) traffic.check_cold(reference, result);
  const GovernorOutcome governor = run_governor(*dataset, *fit);

  const LatencySummary latency = median_over(latency_slices);
  result.detail("latency_slice_calls", static_cast<double>(latency.count),
                "count");
  result.detail("tail_percentile", latency.tail_q * 100.0, "%");
  result.detail("samples_beyond_tail",
                static_cast<double>(latency.count - tail_rank(latency.count)),
                "count");
  result.detail("p99_us", latency.p99, "us");
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    result.detail("setup_s_" + std::to_string(i + 1), setup_s[i], "s");
  }

  if (!config.traced) {
    result.metric("throughput_rps", summarize(throughput).p50);
    result.metric("p50_us", latency.p50);
    result.metric("tail_us", latency.tail);
    result.metric("setup_s", summarize(setup_s).p50);
    result.metric("peak_rss_mb", proc_status_mib("VmHWM") - rss_before_mib);
    result.metric("energy_saving_pct", governor.saving_pct);
    return result;
  }

  // Per-layer metrics.  Paths the workload's own traffic crosses are
  // measured on it; the others by an unloaded probe on the same requests.
  const PathCosts own = costs_of(traffic.samples());
  auto cost = [&](Path path) {
    return path == spec.path
               ? own
               : probe_path(path, trace, fit->served_power(),
                            fit->served_perf(), result, spans);
  };
  const PathCosts wire = cost(Path::Wire);
  result.metric("net.rtt_p50_us", wire.wall_p50_us);
  result.metric("net.transport_p50_us", wire.outside_p50_us);
  result.metric("net.retries", static_cast<double>(retries));
  result.metric("serve.latency_p50_us", own.server_p50_us);
  result.metric("serve.handoff_p50_us", cost(Path::InProcess).outside_p50_us);
  result.metric("cluster.router_overhead_p50_us",
                cost(Path::Cluster).outside_p50_us);

  const double batches_run =
      static_cast<double>(serve_after.batches - serve_before.batches);
  const double served =
      static_cast<double>(serve_after.requests - serve_before.requests);
  const double lookups = static_cast<double>(
      serve_after.hits + serve_after.misses - serve_before.hits -
      serve_before.misses);
  result.metric("serve.mean_batch",
                batches_run > 0 ? (serve_after.batch_items -
                                   serve_before.batch_items) / batches_run
                                : 0.0);
  result.metric("serve.queue_high_water",
                static_cast<double>(serve_after.queue_high_water));
  result.metric("serve.cache_hit_rate",
                lookups > 0 ? (serve_after.hits - serve_before.hits) / lookups
                            : 0.0);
  result.metric("serve.cache_evictions_per_request",
                served > 0 ? (serve_after.evictions - serve_before.evictions) /
                                 served
                           : 0.0);

  const double routed =
      static_cast<double>(router_after.requests - router_before.requests);
  const double hedges =
      static_cast<double>(router_after.hedges_fired - router_before.hedges_fired);
  result.metric("cluster.hedge_rate", routed > 0 ? hedges / routed : 0.0);
  result.metric("cluster.hedge_win_ratio",
                hedges > 0 ? (router_after.hedge_wins - router_before.hedge_wins) /
                                 hedges
                           : 0.0);
  result.metric("cluster.failovers",
                static_cast<double>(router_after.failovers -
                                    router_before.failovers));

  probe_codec(trace, result, spans);
  probe_core(trace, fit->served_power(), fit->served_perf(), result, spans);
  probe_ring(trace, result, spans);
  probe_fit_path({*dataset}, result, spans);

  result.metric("governor.oracle_gap_pct", governor.oracle_gap_pct);
  result.metric("governor.switches", governor.switches);
  result.metric("governor.reboots", governor.reboots);
  result.metric("trace_overhead_pct",
                (summarize(throughput).p50 / summarize(traced_throughput).p50 -
                 1.0) *
                    100.0);
  return result;
}

}  // namespace gppm::benchmark
