#include "probes.hpp"

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "core/features.hpp"
#include "core/governor.hpp"
#include "core/optimizer.hpp"
#include "linalg/gram.hpp"
#include "models.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "stats/forward_selection.hpp"

namespace gppm::benchmark {

namespace {

constexpr std::size_t kSlot = SpanRecorder::kMainSlot;
/// Passes over the inputs per probe; the median pass is reported.
constexpr int kPasses = 5;
/// Calls per board and fit-path step; the median call is reported.
constexpr int kFitPathCalls = 3;

/// Keeps probed results observable so no call is optimized away.
volatile double g_sink = 0.0;

/// Median over kPasses passes of the per-item time, in ns, of calling
/// fn(i) for every i < n.
template <class Fn>
double per_item_ns(SpanRecorder& spans, const char* span, std::size_t n,
                   Fn&& fn) {
  std::vector<double> passes;
  for (int p = 0; p < kPasses; ++p) {
    ScopedSpan s(spans, kSlot, span);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    passes.push_back(seconds_between(start, Clock::now()) * 1e9 /
                     static_cast<double>(n));
  }
  return summarize(passes).p50;
}

/// Median wall time of kFitPathCalls calls of fn(), in ms.
template <class Fn>
double call_ms(SpanRecorder& spans, const char* span, Fn&& fn) {
  std::vector<double> calls;
  for (int c = 0; c < kFitPathCalls; ++c) {
    ScopedSpan s(spans, kSlot, span);
    const Clock::time_point start = Clock::now();
    fn();
    calls.push_back(seconds_between(start, Clock::now()) * 1e3);
  }
  return summarize(calls).p50;
}

}  // namespace

void probe_codec(const std::vector<serve::Request>& requests, Result& out,
                 SpanRecorder& spans) {
  const std::size_t n = requests.size();
  std::vector<std::vector<std::uint8_t>> frames(n);
  const double encode_ns =
      per_item_ns(spans, "probe net.encode", n, [&](std::size_t i) {
        const serve::Request& r = requests[i];
        const std::vector<std::uint8_t> payload =
            net::encode_predict_request(i + 1, r);
        frames[i].clear();
        net::encode_frame_into(frames[i], net::FrameType::PredictRequest,
                               payload, 0, net::predict_request_version(r));
      });
  net::FrameDecoder decoder;
  const double decode_ns =
      per_item_ns(spans, "probe net.decode", n, [&](std::size_t i) {
        decoder.feed(frames[i].data(), frames[i].size());
        const std::optional<net::FrameView> view = decoder.next_view();
        const net::DecodedRequest d = net::decode_predict_request(
            view.value().payload, view->header.deadline_micros);
        g_sink = g_sink + static_cast<double>(d.request_id);
      });
  double request_bytes = 0.0;
  for (const auto& frame : frames) request_bytes += frame.size();
  const std::size_t response_bytes =
      net::encode_frame(net::FrameType::PredictResponse,
                        net::encode_predict_response(1, serve::Response{}))
          .size();
  out.metric("net.encode_ns", encode_ns);
  out.metric("net.decode_ns", decode_ns);
  out.metric("net.bytes_per_request",
             request_bytes / static_cast<double>(n) +
                 static_cast<double>(response_bytes));
}

void probe_core(const std::vector<serve::Request>& requests,
                const core::UnifiedModel& power,
                const core::UnifiedModel& perf, Result& out,
                SpanRecorder& spans) {
  const std::size_t n = requests.size();
  const double predict_pair_ns =
      per_item_ns(spans, "probe core.predict", n, [&](std::size_t i) {
        const serve::Request& r = requests[i];
        g_sink = g_sink + power.predict(r.counters, r.pair) +
                 perf.predict(r.counters, r.pair);
      });
  const double all_pairs_ns =
      per_item_ns(spans, "probe core.predict_all_pairs", n, [&](std::size_t i) {
        g_sink = g_sink + core::predict_all_pairs(power, perf,
                                                  requests[i].counters)
                              .front()
                              .predicted_energy_joules;
      });
  core::DvfsGovernor governor(power, perf);
  const double decide_ns =
      per_item_ns(spans, "probe core.governor_decide", n, [&](std::size_t i) {
        g_sink = g_sink + static_cast<int>(
                              governor.decide(requests[i].counters).core);
      });
  out.metric("core.predict_ns", predict_pair_ns / 2.0);
  out.metric("core.predict_all_pairs_us", all_pairs_ns / 1e3);
  out.metric("core.governor_decide_us", decide_ns / 1e3);
}

void probe_ring(const std::vector<serve::Request>& requests, Result& out,
                SpanRecorder& spans) {
  const cluster::RouterOptions defaults;
  cluster::HashRing ring(defaults.ring_vnodes);
  ring.add("node0");
  ring.add("node1");
  out.metric("cluster.ring_replicas_ns",
             per_item_ns(spans, "probe cluster.ring", requests.size(),
                         [&](std::size_t i) {
                           g_sink = g_sink +
                                    static_cast<double>(
                                        ring.replicas(
                                                cluster::request_key(
                                                    requests[i]),
                                                defaults.replicas)
                                            .size());
                         }));
}

void probe_fit_path(const std::vector<core::Dataset>& boards, Result& out,
                    SpanRecorder& spans) {
  double dataset_ms = 0, table_ms = 0, gram_ms = 0, select_ms = 0,
         family_ms = 0;
  for (const core::Dataset& ds : boards) {
    dataset_ms += call_ms(spans, "probe core.build_dataset", [&] {
      g_sink = g_sink + static_cast<double>(characterize(ds.model).row_count());
    });
    const core::RegressionTable table =
        core::build_table(ds, core::TargetKind::Power);
    table_ms += call_ms(spans, "probe core.build_table", [&] {
      g_sink = g_sink + core::build_table(ds, core::TargetKind::Power)
                            .target.front();
    });
    gram_ms += call_ms(spans, "probe linalg.build_gram_system", [&] {
      g_sink = g_sink + linalg::build_gram_system(table.features, table.target)
                            .tss;
    });
    stats::SelectionOptions selection;
    selection.max_variables = kFamilyMaxVariables;
    select_ms += call_ms(spans, "probe stats.forward_select", [&] {
      g_sink = g_sink + static_cast<double>(
                            stats::forward_select(table.features, table.target,
                                                  selection)
                                .selected.size());
    });
    core::ModelOptions family;
    family.max_variables = kFamilyMaxVariables;
    family_ms += call_ms(spans, "probe core.ModelFamily::fit", [&] {
      g_sink = g_sink + static_cast<double>(
                            core::ModelFamily::fit(ds, core::TargetKind::Power,
                                                   family)
                                .size());
    });
  }
  const double n = static_cast<double>(boards.size());
  out.metric("core.build_dataset_ms", dataset_ms / n);
  out.metric("core.build_table_ms", table_ms / n);
  out.metric("linalg.gram_ms", gram_ms / n);
  out.metric("stats.forward_select_ms", select_ms / n);
  out.metric("core.family_fit_ms", family_ms / n);
}

}  // namespace gppm::benchmark
