#include "obs/export.hpp"

#include <cstdio>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/str.hpp"

namespace gppm::obs {

namespace {

/// JSON string escaping for span names (our own literals, but stay safe).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string bin_label(double upper) {
  // Four significant digits name every edge of the geometry uniquely:
  // le_1.259e-07 ... le_1, le_1.259, ... le_1e+09.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "le_%.4g", upper);
  return buf;
}

}  // namespace

AsciiTable metrics_table(const MetricsSnapshot& snapshot) {
  AsciiTable table({"kind", "name", "value", "max/mean"});
  table.set_title("obs metrics");
  for (const CounterRow& c : snapshot.counters) {
    table.add_row({"counter", c.name, std::to_string(c.value), "-"});
  }
  for (const GaugeRow& g : snapshot.gauges) {
    table.add_row(
        {"gauge", g.name, std::to_string(g.value), std::to_string(g.max)});
  }
  for (const HistogramRow& h : snapshot.histograms) {
    const double mean =
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    table.add_row({"histogram", h.name, std::to_string(h.count),
                   format_double(mean, 3)});
  }
  return table;
}

void write_metrics_csv(const MetricsSnapshot& snapshot, std::ostream& out) {
  CsvWriter csv(out);
  csv.row({"kind", "name", "field", "value"});
  for (const CounterRow& c : snapshot.counters) {
    csv.row({"counter", c.name, "value", std::to_string(c.value)});
  }
  for (const GaugeRow& g : snapshot.gauges) {
    csv.row({"gauge", g.name, "value", std::to_string(g.value)});
    csv.row({"gauge", g.name, "max", std::to_string(g.max)});
  }
  for (const HistogramRow& h : snapshot.histograms) {
    csv.row({"histogram", h.name, "count", std::to_string(h.count)});
    csv.row({"histogram", h.name, "sum", format_double(h.sum, 6)});
    for (std::size_t b = 0; b < h.bin_counts.size(); ++b) {
      if (h.bin_counts[b] == 0) continue;
      csv.row({"histogram", h.name, bin_label(Histogram::upper_edge(b)),
               std::to_string(h.bin_counts[b])});
    }
  }
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out << ",";
    first = false;
    // Complete events; ts/dur are microseconds in the trace_event format.
    out << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"gppm\",\"ph\":\"X\",\"ts\":"
        << format_double(static_cast<double>(s.start_ns) / 1e3, 3)
        << ",\"dur\":"
        << format_double(static_cast<double>(s.duration_ns) / 1e3, 3)
        << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"depth\":" << s.depth
        << "}}";
  }
  out << "\n]}\n";
}

void write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open " + path);
  write_metrics_csv(Registry::instance().snapshot(), out);
}

void write_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open " + path);
  write_chrome_trace(span_snapshot(), out);
}

}  // namespace gppm::obs
