#include "fit.hpp"

#include <algorithm>

#include "dvfs/combos.hpp"
#include "models.hpp"
#include "probes.hpp"
#include "served.hpp"

namespace gppm::benchmark {

namespace {

constexpr std::size_t kMain = SpanRecorder::kMainSlot;

/// Predict requests over a board's characterized phases, cycling through
/// its configurable pairs: the inputs of the fit workload's probes.
std::vector<serve::Request> phase_requests(const core::Dataset& dataset) {
  const std::vector<sim::FrequencyPair> pairs =
      dvfs::configurable_pairs(dataset.model);
  std::vector<serve::Request> requests;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i) {
    serve::Request r;
    r.gpu = dataset.model;
    r.counters = dataset.samples[i].counters;
    r.pair = pairs[i % pairs.size()];
    requests.push_back(std::move(r));
  }
  return requests;
}

}  // namespace

Result run_fit(const RunConfig& config, SpanRecorder& spans) {
  Result result;
  result.workload = "fit";
  const double rss_before_mib = proc_status_mib("VmRSS");

  // Setup: the characterization campaign of every board, kSetupRepeats
  // times in three blocks: before the reps, halfway through them and after
  // them.  Five set-ups at the start alone measured the host of that one
  // second, and over ten identical runs their median spread by up to 58%
  // (IQR).  Every block characterizes the same boards.
  std::vector<core::Dataset> boards;
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int rep = 0; rep < kSetupRepeats / 3; ++rep) {
      boards.clear();
      ScopedSpan setup(spans, kMain, "setup");
      for (sim::GpuModel gpu : sim::kAllGpus) {
        ScopedSpan s(spans, kMain, "core.build_dataset", setup.id());
        boards.push_back(characterize(gpu));
      }
      setup_s.push_back(seconds_between(setup.start(), Clock::now()));
    }
  };
  set_up();

  // One rep fits every board: both model families and the governor's
  // power model.
  std::uint64_t reps = 0;
  auto rep = [&](SpanRecorder& recorder) {
    const std::uint64_t request = ++reps;
    ScopedSpan span(recorder, kMain, "fit.rep", 0, request);
    std::vector<BoardFit> fits;
    for (const core::Dataset& ds : boards) {
      fits.push_back(fit_board(ds, recorder, span.id(), request));
    }
    return fits;
  };
  SpanRecorder untraced(false);
  const std::vector<BoardFit> first = rep(untraced);
  std::vector<std::string> reference;
  for (const BoardFit& f : first) reference.push_back(serialize(f));

  // Closed loop, one rep at a time.  A traced run alternates untraced and
  // traced reps, so drift in the host's speed cannot pass for tracing
  // overhead.  Every rep must reproduce the first byte for byte; the
  // comparison runs outside the timing.  The reps run in two halves of the
  // run, each followed by a set-up block.
  std::vector<double> rep_us, traced_rep_us;
  std::uint64_t n = 0;
  for (int half = 0; half < 2; ++half) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds / 2));
    for (; Clock::now() < end; ++n) {
      const bool traced = config.traced && n % 2 == 1;
      const Clock::time_point start = Clock::now();
      const std::vector<BoardFit> fits = rep(traced ? spans : untraced);
      (traced ? traced_rep_us : rep_us)
          .push_back(seconds_between(start, Clock::now()) * 1e6);
      for (std::size_t b = 0; b < fits.size(); ++b) {
        if (serialize(fits[b]) != reference[b]) {
          result.fail("rep " + std::to_string(n + 1) + ": " +
                      sim::to_string(boards[b].model) +
                      " models differ from the first rep");
          break;
        }
      }
    }
    set_up();
  }
  result.attempted += reps;

  // The incremental Gram engine must select exactly what the reference QR
  // engine does.  Checked on the served board only: the reference engine
  // takes seconds per board.
  const auto gtx680 =
      std::find_if(boards.begin(), boards.end(), [](const core::Dataset& d) {
        return d.model == sim::GpuModel::GTX680;
      });
  const BoardFit& gtx680_fit = first[gtx680 - boards.begin()];
  core::ModelOptions naive;
  naive.max_variables = kFamilyMaxVariables;
  naive.engine = stats::SelectionEngine::NaiveQr;
  ++result.attempted;
  if (serialize(core::ModelFamily::fit(*gtx680, core::TargetKind::ExecTime,
                                       naive)) != serialize(gtx680_fit.perf)) {
    result.fail("GTX 680 exec-time family differs from the NaiveQr fit");
  }

  GovernorOutcome governed;
  for (std::size_t b = 0; b < boards.size(); ++b) {
    const GovernorOutcome g = run_governor(boards[b], first[b]);
    governed.saving_pct += g.saving_pct / static_cast<double>(boards.size());
    governed.oracle_gap_pct +=
        g.oracle_gap_pct / static_cast<double>(boards.size());
    governed.switches += g.switches;
    governed.reboots += g.reboots;
  }

  const LatencySummary latency = summarize(rep_us);
  double total_us = 0.0;
  for (double t : rep_us) total_us += t;
  result.detail("reps", static_cast<double>(latency.count), "count");
  result.detail("tail_percentile", latency.tail_q * 100.0, "%");
  result.detail("samples_beyond_tail",
                static_cast<double>(latency.count - tail_rank(latency.count)),
                "count");
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    result.detail("setup_s_" + std::to_string(i + 1), setup_s[i], "s");
  }

  if (!config.traced) {
    result.metric("throughput_rps", static_cast<double>(rep_us.size()) /
                                        (total_us / 1e6));
    result.metric("p50_us", latency.p50);
    result.metric("tail_us", latency.tail);
    result.metric("setup_s", summarize(setup_s).p50);
    result.metric("peak_rss_mb", proc_status_mib("VmHWM") - rss_before_mib);
    result.metric("energy_saving_pct", governed.saving_pct);
    return result;
  }

  // Per-layer metrics.  Nothing is served, so every path is probed with
  // the first rep's GTX 680 models on that board's characterized phases.
  const std::vector<serve::Request> requests = phase_requests(*gtx680);
  auto probe = [&](Path path) {
    return probe_path(path, requests, gtx680_fit.served_power(),
                      gtx680_fit.served_perf(), result, spans);
  };
  const PathCosts wire = probe(Path::Wire);
  const PathCosts in_process = probe(Path::InProcess);
  result.metric("net.rtt_p50_us", wire.wall_p50_us);
  result.metric("net.transport_p50_us", wire.outside_p50_us);
  result.metric("net.retries", 0.0);
  result.metric("serve.latency_p50_us", in_process.server_p50_us);
  result.metric("serve.handoff_p50_us", in_process.outside_p50_us);
  result.metric("cluster.router_overhead_p50_us",
                probe(Path::Cluster).outside_p50_us);
  // No traffic reaches a server, a router or a cache.
  for (const char* name :
       {"serve.mean_batch", "serve.queue_high_water", "serve.cache_hit_rate",
        "serve.cache_evictions_per_request", "cluster.hedge_rate",
        "cluster.hedge_win_ratio", "cluster.failovers"}) {
    result.metric(name, 0.0);
  }
  probe_codec(requests, result, spans);
  probe_core(requests, gtx680_fit.served_power(), gtx680_fit.served_perf(),
             result, spans);
  probe_ring(requests, result, spans);
  probe_fit_path(boards, result, spans);
  result.metric("governor.oracle_gap_pct", governed.oracle_gap_pct);
  result.metric("governor.switches", governed.switches);
  result.metric("governor.reboots", governed.reboots);
  result.metric("trace_overhead_pct",
                (summarize(traced_rep_us).p50 / latency.p50 - 1.0) * 100.0);
  return result;
}

}  // namespace gppm::benchmark
