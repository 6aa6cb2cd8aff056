#include "governor/loop.hpp"

#include <utility>

#include "common/error.hpp"

namespace gppm::governor {

namespace {

/// Seed of the loop's profiler noise.
constexpr std::uint64_t kProfilerSeed = 11;

/// Re-express a profile collected at arbitrary clocks on the models'
/// training basis.  The corpus collects counters at the default (H-H)
/// pair, so per-second rates are "events per second of H-H run time"; a
/// governor profiling at its *current* clocks sees the same totals over a
/// different run time, which deflates every rate at low clocks and biases
/// the power model's activity terms against the (unscaled) baseline
/// terms.  Totals are clock-invariant, and the performance model consumes
/// only totals — so its predicted default-pair run time reconstructs the
/// training-basis rate: per_second = total / T_pred(H-H).
profiler::ProfileResult normalize_to_default_basis(
    const core::UnifiedModel& perf, profiler::ProfileResult counters) {
  const double t_hh =
      std::max(perf.predict(counters, sim::kDefaultPair), 1e-3);
  for (profiler::CounterReading& r : counters.counters) {
    r.per_second = r.total / t_hh;
  }
  counters.run_time = Duration::seconds(t_hh);
  return counters;
}

}  // namespace

GovernorLoop::GovernorLoop(sim::GpuModel board,
                           const core::Dataset& seed_corpus,
                           core::UnifiedModel power, core::UnifiedModel perf,
                           LoopOptions options)
    : options_(options),
      runner_(board, options.runner),
      controller_(runner_.gpu()),
      profiler_(kProfilerSeed),
      governor_(seed_corpus, std::move(power), std::move(perf),
                options.governor) {
  GPPM_CHECK(seed_corpus.model == board, "seed corpus board != loop board");
  governor_.reset(controller_.current_pair());
}

LoopResult GovernorLoop::run(const std::vector<workload::Phase>& phases) {
  LoopResult result;
  const int reboots_before = controller_.reboot_count();
  const int refits_before = governor_.refit_count();
  const std::vector<sim::FrequencyPair> all_pairs =
      controller_.available_pairs();

  for (const workload::Phase& phase : phases) {
    if (!profiler::CudaProfiler::supports(phase.benchmark)) continue;
    const sim::RunProfile profile = phase.profile();

    // 1. Profile at the clocks the board is at right now, then re-express
    //    the rates on the models' (H-H) training basis.
    const profiler::ProfileResult counters = normalize_to_default_basis(
        governor_.perf_model(), profiler_.collect(runner_.gpu(), profile));

    // 2-3. Decide and apply.  Same-pair decisions are a controller no-op.
    const sim::FrequencyPair pick =
        governor_.decide(counters, phase.benchmark);
    controller_.set_pair(pick);

    PhaseOutcome outcome;
    outcome.phase = phase;
    outcome.pair = pick;

    // Baselines first: measure_profile leaves the board at the pair it
    // measured, so measuring the governed point last parks the clocks
    // where the controller thinks they are for the next phase's profile.
    if (options_.measure_baselines) {
      const core::Measurement at_default =
          runner_.measure_profile(profile, sim::kDefaultPair);
      outcome.default_energy_joules = at_default.energy.as_joules();
      outcome.default_time_seconds = at_default.exec_time.as_seconds();
      outcome.oracle_energy_joules = at_default.energy.as_joules();
      outcome.oracle_pair = sim::kDefaultPair;
      for (sim::FrequencyPair pair : all_pairs) {
        const core::Measurement m = runner_.measure_profile(profile, pair);
        if (m.energy.as_joules() < outcome.oracle_energy_joules) {
          outcome.oracle_energy_joules = m.energy.as_joules();
          outcome.oracle_pair = pair;
        }
      }
    }

    // 4. Measure the governed phase.
    outcome.measured = runner_.measure_profile(profile, pick);

    // 5. Close the loop: stream the measured triple into the refit window.
    governor_.observe(counters, pick, outcome.measured.avg_power,
                      outcome.measured.exec_time, phase.benchmark);

    result.governed_energy_joules += outcome.measured.energy.as_joules();
    result.governed_time_seconds += outcome.measured.exec_time.as_seconds();
    result.default_energy_joules += outcome.default_energy_joules;
    result.default_time_seconds += outcome.default_time_seconds;
    result.oracle_energy_joules += outcome.oracle_energy_joules;
    result.phases.push_back(std::move(outcome));
  }

  result.switches = governor_.switch_count();
  result.reboots = controller_.reboot_count() - reboots_before;
  result.refits = governor_.refit_count() - refits_before;
  return result;
}

}  // namespace gppm::governor
