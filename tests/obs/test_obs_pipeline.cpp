// End-to-end observability: run the instrumented layers (resilient sweep,
// cross-validated forward selection over the compute pool, prediction
// serving) with obs enabled, then check the Chrome trace is well-formed and
// properly nested and that the metrics registry saw all four subsystems.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/characterization.hpp"
#include "core/dataset.hpp"
#include "core/evaluation.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "workload/suite.hpp"

namespace gppm {
namespace {

const core::Dataset& shared_dataset() {
  static const core::Dataset* ds =
      new core::Dataset(core::build_dataset(sim::GpuModel::GTX460));
  return *ds;
}

/// One parsed trace event (the fields the nesting check needs).
struct TraceEvent {
  std::string name;
  std::uint64_t tid = 0;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
};

/// Structural JSON well-formedness: braces/brackets balance outside string
/// literals and every string closes.  Not a full parser, but enough to
/// guarantee chrome://tracing's JSON.parse will not reject the shape.
bool json_structure_ok(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

std::string field_value(const std::string& event, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = event.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  if (begin < event.size() && event[begin] == '"') {
    const std::size_t end = event.find('"', begin + 1);
    return event.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < event.size() && event[end] != ',' && event[end] != '}') ++end;
  return event.substr(begin, end - begin);
}

std::vector<TraceEvent> parse_trace_events(const std::string& json) {
  std::vector<TraceEvent> events;
  const std::size_t list = json.find("\"traceEvents\":[");
  if (list == std::string::npos) return events;
  std::size_t at = list;
  while (true) {
    const std::size_t open = json.find('{', at);
    if (open == std::string::npos) break;
    const std::size_t close = json.find('}', open);
    if (close == std::string::npos) break;
    const std::string body = json.substr(open + 1, close - open - 1);
    TraceEvent e;
    e.name = field_value(body, "name");
    e.tid = std::stoull(field_value(body, "tid"));
    e.ts = std::stod(field_value(body, "ts"));
    e.dur = std::stod(field_value(body, "dur"));
    EXPECT_EQ(field_value(body, "ph"), "X");
    EXPECT_EQ(field_value(body, "pid"), "1");
    EXPECT_FALSE(e.name.empty());
    events.push_back(e);
    at = close + 1;
  }
  return events;
}

TEST(ObsPipeline, SweepSelectServeProducesTraceAndFullMetrics) {
  obs::set_enabled(true);
  obs::clear_spans();
  obs::Registry::instance().reset_values();

  // Layer 1+2: resilient sweep under a light fault plan (exercises the
  // retry/imputation counters, sweep.* spans and the measurement path).
  fault::FaultInjector injector(fault::FaultPlan::default_profile(), 11);
  core::RunnerOptions ropt;
  ropt.injector = &injector;
  core::MeasurementRunner runner(sim::GpuModel::GTX460, ropt);
  const core::Sweep sweep = core::sweep_pairs_resilient(
      runner, workload::find_benchmark("gaussian"), 0);
  EXPECT_GT(sweep.results.size(), 0u);

  // Layer 3: leave-one-benchmark-out cross-validation, whose folds run
  // forward selection on the compute pool (select.* spans/counters plus
  // parallel.* from the pool itself).
  const core::Evaluation cv =
      core::cross_validate(shared_dataset(), core::TargetKind::Power);
  EXPECT_EQ(cv.rows.size(), shared_dataset().row_count());

  // Layer 4: prediction serving (the server's scope: serve.* counters,
  // latency histograms and queue/cache gauges, kept after it is gone).
  {
    serve::PredictionServer server;
    server.load_models(
        core::UnifiedModel::fit(shared_dataset(), core::TargetKind::Power),
        core::UnifiedModel::fit(shared_dataset(), core::TargetKind::ExecTime));
    std::vector<std::future<serve::Response>> pending;
    for (std::size_t i = 0; i < 16; ++i) {
      serve::Request req;
      req.kind = serve::RequestKind::Predict;
      req.gpu = sim::GpuModel::GTX460;
      req.counters =
          shared_dataset().samples[i % shared_dataset().samples.size()]
              .counters;
      pending.push_back(server.submit(std::move(req)));
    }
    for (auto& f : pending) {
      EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    }
    (void)server.metrics();  // a plain snapshot; the scope exports serve.*
    server.shutdown();
  }

  // All four layers must show up in one registry snapshot...
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_TRUE(snap.has_activity("sweep."));
  EXPECT_TRUE(snap.has_activity("select."));
  EXPECT_TRUE(snap.has_activity("parallel."));
  EXPECT_TRUE(snap.has_activity("serve."));

  // ...and in the CSV export.
  std::ostringstream csv;
  obs::write_metrics_csv(snap, csv);
  for (const char* name :
       {"sweep.attempts", "select.steps", "parallel.tasks",
        "serve.requests"}) {
    EXPECT_NE(csv.str().find(name), std::string::npos) << name;
  }

  // The trace must be structurally valid JSON with every span family
  // present, and spans on one thread must nest (contain or not overlap).
  std::ostringstream trace;
  obs::write_chrome_trace(obs::span_snapshot(), trace);
  const std::string json = trace.str();
  EXPECT_TRUE(json_structure_ok(json));
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  const std::vector<TraceEvent> events = parse_trace_events(json);
  EXPECT_GT(events.size(), 0u);
  std::map<std::string, int> by_name;
  for (const TraceEvent& e : events) ++by_name[e.name];
  for (const char* name : {"sweep.resilient", "sweep.cell", "select.step",
                           "parallel.task", "serve.batch"}) {
    EXPECT_GT(by_name[name], 0) << name;
  }

  const double slack_us = 1.0;  // export rounds to 0.001 us; allow rounding
  for (const TraceEvent& a : events) {
    for (const TraceEvent& b : events) {
      if (a.tid != b.tid) continue;
      if (b.ts >= a.ts - slack_us && b.ts + b.dur <= a.ts + a.dur + slack_us)
        continue;  // b inside a
      if (a.ts >= b.ts - slack_us && a.ts + a.dur <= b.ts + b.dur + slack_us)
        continue;  // a inside b
      if (b.ts >= a.ts + a.dur - slack_us || a.ts >= b.ts + b.dur - slack_us)
        continue;  // disjoint
      ADD_FAILURE() << a.name << " and " << b.name
                    << " overlap without nesting on tid " << a.tid;
    }
  }

  obs::set_enabled(false);
}

TEST(ObsPipeline, ServeTableOutputUnchangedByObsBridge) {
  // The registry bridge must not perturb the serve-side rendering: the same
  // recorded history prints byte-identically with obs off and on.
  const auto drive = [] {
    serve::MetricsCollector collector;
    collector.record_request(serve::RequestKind::Predict, 0.0012);
    collector.record_request(serve::RequestKind::Optimize, 0.0203);
    collector.record_batch(3);
    collector.record_shed();
    collector.record_deadline_expired();
    serve::ServerMetrics m = collector.snapshot();
    m.queue_high_water = 5;
    std::ostringstream out;
    m.print(out);
    m.write_csv(out);
    return out.str();
  };

  obs::set_enabled(false);
  const std::string disabled = drive();
  obs::set_enabled(true);
  const std::string enabled = drive();
  obs::set_enabled(false);
  EXPECT_EQ(disabled, enabled);
}

}  // namespace
}  // namespace gppm
