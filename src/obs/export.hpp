// Renderers for gppm::obs: the standard ASCII table and CSV every bench
// emits, plus Chrome trace_event JSON for the span buffer (load the file in
// chrome://tracing or Perfetto).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/obs.hpp"

namespace gppm::obs {

/// Counters/gauges/histograms as one ASCII table (kind, name, value, max).
AsciiTable metrics_table(const MetricsSnapshot& snapshot);

/// CSV rows `kind,name,field,value`; histograms expand to count/sum plus
/// one `le_<upper edge>` row per non-empty bin, holding that bin's own
/// count (not cumulative).
void write_metrics_csv(const MetricsSnapshot& snapshot, std::ostream& out);

/// Chrome trace_event JSON: one complete ("ph":"X") event per span, with
/// timestamps/durations in microseconds.
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& out);

/// Snapshot the live registry / span buffer and write to `path`.  Throws
/// gppm::Error when the file cannot be opened.
void write_metrics_file(const std::string& path);
void write_trace_file(const std::string& path);

}  // namespace gppm::obs
