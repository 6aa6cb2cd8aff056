#include "models.hpp"

#include "core/serialization.hpp"
#include "governor/loop.hpp"

namespace gppm::benchmark {

core::Dataset characterize(sim::GpuModel gpu) {
  core::DatasetOptions options;
  options.seed = kCampaignSeed;
  return core::build_dataset(gpu, options);
}

BoardFit fit_board(const core::Dataset& dataset, SpanRecorder& spans,
                   std::uint64_t parent, std::uint64_t request) {
  constexpr std::size_t slot = SpanRecorder::kMainSlot;
  core::ModelOptions family;
  family.max_variables = kFamilyMaxVariables;
  core::ModelOptions governor;
  governor.scaling = core::FeatureScaling::VoltageSquaredFrequency;
  governor.include_baseline_terms = true;

  auto fit_family = [&](core::TargetKind target, const char* span) {
    ScopedSpan s(spans, slot, span, parent, request);
    return core::ModelFamily::fit(dataset, target, family);
  };
  core::ModelFamily power =
      fit_family(core::TargetKind::Power, "core.ModelFamily::fit power");
  core::ModelFamily perf =
      fit_family(core::TargetKind::ExecTime, "core.ModelFamily::fit exectime");
  core::UnifiedModel governor_power = [&] {
    ScopedSpan s(spans, slot, "core.UnifiedModel::fit governor power", parent,
                 request);
    return core::UnifiedModel::fit(dataset, core::TargetKind::Power, governor);
  }();
  return BoardFit{std::move(power), std::move(perf), std::move(governor_power)};
}

std::string serialize(const core::ModelFamily& family) {
  std::string out;
  for (std::size_t k = 1; k <= family.size(); ++k) {
    out += core::serialize_model(family.at(k));
  }
  return out;
}

std::string serialize(const BoardFit& fit) {
  return serialize(fit.power) + serialize(fit.perf) +
         core::serialize_model(fit.governor_power);
}

GovernorOutcome run_governor(const core::Dataset& dataset,
                             const BoardFit& fit) {
  governor::LoopOptions options;
  options.governor.policy = core::GovernorPolicy::MinimumEnergy;
  governor::GovernorLoop loop(dataset.model, dataset, fit.governor_power,
                              fit.served_perf(), options);
  workload::PhaseScheduleOptions schedule;
  schedule.phases = kGovernorPhases;
  schedule.seed = kCampaignSeed;
  const governor::LoopResult r = loop.run(workload::phase_schedule(
      schedule, profiler::CudaProfiler::unsupported_benchmarks()));
  GovernorOutcome out;
  out.saving_pct =
      (1.0 - r.governed_energy_joules / r.default_energy_joules) * 100.0;
  out.oracle_gap_pct =
      (r.governed_energy_joules / r.oracle_energy_joules - 1.0) * 100.0;
  out.switches = r.switches;
  out.reboots = r.reboots;
  return out;
}

}  // namespace gppm::benchmark
