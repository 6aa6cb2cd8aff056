// Layer probes for traced runs.
//
// A probe times calls into one layer's public functions on the workload's
// own inputs, one call at a time, outside any load: the frame codec, model
// evaluation, ring placement and each step of the fit path.  Every
// workload runs every probe, so every traced run reports every layer.
#pragma once

#include <vector>

#include "core/dataset.hpp"
#include "core/unified_model.hpp"
#include "report.hpp"
#include "serve/request.hpp"
#include "spans.hpp"

namespace gppm::benchmark {

/// net.encode_ns, net.decode_ns, net.bytes_per_request.
void probe_codec(const std::vector<serve::Request>& requests, Result& out,
                 SpanRecorder& spans);

/// core.predict_ns, core.predict_all_pairs_us, core.governor_decide_us.
void probe_core(const std::vector<serve::Request>& requests,
                const core::UnifiedModel& power,
                const core::UnifiedModel& perf, Result& out,
                SpanRecorder& spans);

/// cluster.ring_replicas_ns on the router's default two-node ring.
void probe_ring(const std::vector<serve::Request>& requests, Result& out,
                SpanRecorder& spans);

/// core.build_dataset_ms, core.build_table_ms, linalg.gram_ms,
/// stats.forward_select_ms, core.family_fit_ms: the power-target fit path,
/// median of a few calls per board, averaged over `boards`.
void probe_fit_path(const std::vector<core::Dataset>& boards, Result& out,
                    SpanRecorder& spans);

}  // namespace gppm::benchmark
