// Serving fitted models at runtime: the deployment story end to end.
//
// Offline, once: build the corpus, fit the power and exectime models,
// serialize them.  Online, forever: a PredictionServer loads the pair and
// answers concurrent Predict / Optimize / Govern requests from a worker
// pool, with micro-batching, a prediction cache and metrics.
//
// Build & run:  ./build/examples/serving
#include <iostream>
#include <vector>

#include "common/str.hpp"
#include "core/dataset.hpp"
#include "core/serialization.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

using namespace gppm;

int main() {
  const sim::GpuModel board = sim::GpuModel::GTX460;

  // --- Offline: fit once (in a real deployment this runs on the rig and
  // the models ship as files; serialize_model/deserialize_model round-trip
  // them exactly).
  std::cout << "fitting models for " << sim::to_string(board) << "...\n";
  const core::Dataset ds = core::build_dataset(board);
  core::UnifiedModel power = core::UnifiedModel::fit(
      ds, core::TargetKind::Power, core::extended_power_options());
  core::UnifiedModel perf =
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);
  std::cout << "power model fingerprint "
            << core::model_fingerprint(power) << "\n";

  // --- Online: start the server (workers spin up immediately) and
  // register the pair for the board.
  serve::ServerOptions options;
  options.worker_threads = 2;
  serve::PredictionServer server(options);
  server.load_models(std::move(power), std::move(perf));

  // A client ships a profiled phase and asks the three questions.
  const profiler::ProfileResult& phase = ds.samples.front().counters;

  serve::Request predict;
  predict.kind = serve::RequestKind::Predict;
  predict.gpu = board;
  predict.counters = phase;
  predict.pair = {sim::ClockLevel::Medium, sim::ClockLevel::High};

  serve::Request optimize;
  optimize.kind = serve::RequestKind::Optimize;
  optimize.gpu = board;
  optimize.counters = phase;

  serve::Request govern;
  govern.kind = serve::RequestKind::Govern;
  govern.gpu = board;
  govern.counters = phase;
  govern.policy = core::GovernorPolicy::MinimumEnergy;

  // submit() returns a future; batching and caching happen behind it.
  auto f1 = server.submit(predict);
  auto f2 = server.submit(optimize);
  auto f3 = server.submit(govern);

  const serve::Response r1 = f1.get();
  std::cout << "predict @ " << sim::to_string(r1.pair) << ": "
            << format_double(r1.power_watts, 1) << " W, "
            << format_double(r1.time_seconds, 3) << " s\n";
  const serve::Response r2 = f2.get();
  std::cout << "optimize: best pair " << sim::to_string(r2.pair) << " at "
            << format_double(r2.energy_joules, 1) << " J predicted\n";
  const serve::Response r3 = f3.get();
  std::cout << "govern (min-energy): " << sim::to_string(r3.pair) << "\n";

  // Re-asking an identical question is answered from the cache.
  const serve::Response again = server.submit(predict).get();
  std::cout << "repeat predict served from cache: "
            << (again.cache_hit ? "yes" : "no") << "\n";

  // Shutdown drains: everything queued is answered, new work is rejected.
  server.shutdown();
  try {
    server.submit(predict);
  } catch (const Error&) {
    std::cout << "post-shutdown submit rejected (drain semantics)\n";
  }

  server.metrics().print(std::cout);
  return 0;
}
