// Online DVFS governor: the paper's "dynamic runtime management" future
// work, built from its pieces.
//
// A stream of application phases (different kernels) arrives; for each
// phase the governor profiles it once at the current clocks, predicts
// power/time for every configurable pair with the unified models, switches
// to the predicted minimum-energy pair through the VBIOS path, and runs.
// The run reports the realized energy against two baselines: always-default
// clocks and the per-phase oracle.
//
// Build & run:  ./build/examples/online_governor
#include <iostream>

#include "common/str.hpp"
#include "common/table.hpp"
#include "core/governor.hpp"
#include "core/runner.hpp"
#include "dvfs/controller.hpp"
#include "profiler/cuda_profiler.hpp"
#include "workload/suite.hpp"

using namespace gppm;

int main() {
  const sim::GpuModel board = sim::GpuModel::GTX680;
  std::cout << "Training unified models for " << sim::to_string(board)
            << "...\n";
  const core::Dataset ds = core::build_dataset(board);
  core::GovernorOptions gopt;
  gopt.policy = core::GovernorPolicy::MinimumEnergy;
  gopt.switch_threshold = 0.02;  // ignore <2% predicted gains
  core::DvfsGovernor governor(
      core::UnifiedModel::fit(ds, core::TargetKind::Power,
                              core::extended_power_options()),
      core::UnifiedModel::fit(ds, core::TargetKind::ExecTime), gopt);

  core::MeasurementRunner runner(board);
  dvfs::Controller dvfs(runner.gpu());
  profiler::CudaProfiler prof;

  // A day in the life of a GPU server: alternating phases.
  const std::vector<std::string> phases = {"sgemm", "streamcluster", "lbm",
                                           "mri-q", "spmv", "hotspot"};

  AsciiTable table({"phase", "governor pair", "energy (J)", "default (J)",
                    "oracle (J)", "saving %"});
  double total_gov = 0, total_def = 0, total_oracle = 0;

  for (const std::string& phase : phases) {
    const workload::BenchmarkDef& bench = workload::find_benchmark(phase);
    const sim::RunProfile profile =
        runner.prepared_profile(bench, bench.size_count - 1);

    // Profile the phase once (at the current pair, as a governor would).
    runner.gpu().set_frequency_pair(governor.current_pair());
    const profiler::ProfileResult counters = prof.collect(runner.gpu(), profile);

    // Predict and switch (hysteresis applies inside the governor).
    const sim::FrequencyPair pick = governor.decide(counters);
    dvfs.set_pair(pick);
    const core::Measurement chosen = runner.measure_profile(profile, pick);

    // Baselines.
    const core::Measurement at_default =
        runner.measure_profile(profile, sim::kDefaultPair);
    double oracle = at_default.energy.as_joules();
    for (sim::FrequencyPair pair : dvfs.available_pairs()) {
      oracle = std::min(
          oracle, runner.measure_profile(profile, pair).energy.as_joules());
    }

    total_gov += chosen.energy.as_joules();
    total_def += at_default.energy.as_joules();
    total_oracle += oracle;
    table.add_row(
        {phase, sim::to_string(pick),
         format_double(chosen.energy.as_joules(), 1),
         format_double(at_default.energy.as_joules(), 1),
         format_double(oracle, 1),
         format_double((1.0 - chosen.energy.as_joules() /
                                  at_default.energy.as_joules()) * 100.0, 1)});
  }
  table.print(std::cout);

  std::cout << "\nTotals: governor " << format_double(total_gov, 0)
            << " J, always-default " << format_double(total_def, 0)
            << " J, oracle " << format_double(total_oracle, 0) << " J\n";
  std::cout << "Governor saves "
            << format_double((1.0 - total_gov / total_def) * 100.0, 1)
            << "% of energy and captures "
            << format_double((total_def - total_gov) /
                                 std::max(1e-9, total_def - total_oracle) * 100.0,
                             0)
            << "% of the oracle's achievable saving, using "
            << governor.switch_count() << " P-state switches over "
            << governor.decision_count() << " phases.\n";
  return 0;
}
