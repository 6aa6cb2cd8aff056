// The fit workload: the offline path from a characterization campaign to
// fitted models and a governed board.  No serving code runs in its timed
// part.
#pragma once

#include "report.hpp"
#include "spans.hpp"

namespace gppm::benchmark {

Result run_fit(const RunConfig& config, SpanRecorder& spans);

}  // namespace gppm::benchmark
