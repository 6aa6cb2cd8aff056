// The closed DVFS loop: phase stream -> profile -> decide -> apply through
// the VBIOS controller -> measure -> feed the refit engine.
//
// This is the harness that turns the library's pieces into the running
// system the paper's future-work section sketches.  Per phase it
//
//   1. profiles the incoming kernel at the clocks the board is currently
//      at (a real governor cannot profile anywhere else);
//   2. asks the OnlineGovernor for the operating point;
//   3. applies it through dvfs::Controller — a same-pair decision is a
//      validated no-op there, so steady state costs zero reboots;
//   4. measures the phase at the chosen point;
//   5. streams the (counters, pair, measurement) triple back into the
//      governor's refit window.
//
// With measure_baselines on, each phase is additionally measured at the
// static default pair and swept across every configurable pair for the
// per-phase oracle, which is what the bench gates compare against
// (TABLE IV's offline-optimal pairs, phase by phase).
#pragma once

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "dvfs/controller.hpp"
#include "governor/governor.hpp"
#include "profiler/cuda_profiler.hpp"
#include "workload/phases.hpp"

namespace gppm::governor {

struct LoopOptions {
  OnlineGovernorOptions governor;
  core::RunnerOptions runner;
  /// Also measure every phase at the static default pair and at every
  /// configurable pair (per-phase oracle) for comparison.
  bool measure_baselines = true;
};

/// What one phase did.
struct PhaseOutcome {
  workload::Phase phase;
  sim::FrequencyPair pair;            ///< governor's choice
  core::Measurement measured;         ///< at the governed pair
  double default_energy_joules = 0.0; ///< static (H-H), if baselines on
  double default_time_seconds = 0.0;
  double oracle_energy_joules = 0.0;  ///< per-phase best pair, if baselines on
  sim::FrequencyPair oracle_pair;
};

struct LoopResult {
  std::vector<PhaseOutcome> phases;
  double governed_energy_joules = 0.0;
  double governed_time_seconds = 0.0;
  double default_energy_joules = 0.0;
  double default_time_seconds = 0.0;
  double oracle_energy_joules = 0.0;
  int switches = 0;
  int reboots = 0;  ///< effective P-state transitions (dvfs reboot_count delta)
  int refits = 0;
};

/// Owns the board, controller, profiler and governor for one closed loop.
class GovernorLoop {
 public:
  /// `seed_corpus` must be built for `board`; it seeds the governor's refit
  /// prior.  The offline models are fitted by the caller (so benches can
  /// share cached fits) and handed in.
  GovernorLoop(sim::GpuModel board, const core::Dataset& seed_corpus,
               core::UnifiedModel power, core::UnifiedModel perf,
               LoopOptions options = {});

  /// Run the loop over a phase schedule.  Profiler-unsupported phases are
  /// skipped (a real governor falls back to current clocks for them; here
  /// they simply do not contribute outcomes).
  LoopResult run(const std::vector<workload::Phase>& phases);

  OnlineGovernor& governor() { return governor_; }
  dvfs::Controller& controller() { return controller_; }
  core::MeasurementRunner& runner() { return runner_; }

 private:
  LoopOptions options_;
  core::MeasurementRunner runner_;
  dvfs::Controller controller_;
  profiler::CudaProfiler profiler_;
  OnlineGovernor governor_;
};

}  // namespace gppm::governor
