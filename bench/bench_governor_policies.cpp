// Extension E1: DVFS governor policy comparison.
//
// Runs the phase-level governor (core::DvfsGovernor, extended model form)
// over the full 114-sample corpus of each board under its three policies
// and reports *measured* outcomes: energy vs the always-default baseline,
// energy-delay product, total runtime, cap compliance and switch counts.
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "core/governor.hpp"

using namespace gppm;

namespace {

struct Outcome {
  double energy_j = 0;
  double time_s = 0;
  double edp = 0;  // sum of per-phase energy x time
  int switches = 0;
  int cap_violations = 0;
};

Outcome run_policy(const bench::BoardModels& bm, const core::UnifiedModel& power,
                   core::GovernorOptions opt) {
  core::DvfsGovernor governor(power, bm.perf, opt);
  Outcome out;
  for (const core::Sample& s : bm.dataset.samples) {
    const sim::FrequencyPair pick = governor.decide(s.counters);
    for (const core::Measurement& m : s.runs) {
      if (!(m.pair == pick)) continue;
      out.energy_j += m.energy.as_joules();
      out.time_s += m.exec_time.as_seconds();
      out.edp += m.energy.as_joules() * m.exec_time.as_seconds();
      if (opt.policy == core::GovernorPolicy::PowerCap &&
          m.avg_power.as_watts() > opt.power_cap.as_watts() * 1.10) {
        ++out.cap_violations;
      }
    }
  }
  out.switches = governor.switch_count();
  return out;
}

}  // namespace

int main() {
  bench::print_banner("Extension E1",
                      "Governor policy comparison over the 114-sample corpus "
                      "(extended model form; measured outcomes).");

  bench::begin_csv("governor_policies");
  CsvWriter csv(std::cout);
  csv.row({"gpu", "policy", "energy_vs_default_pct", "time_vs_default_pct",
           "edp_vs_default_pct", "switches", "cap_violations"});

  for (sim::GpuModel model : sim::kAllGpus) {
    const bench::BoardModels& bm = bench::board_models(model);
    const core::UnifiedModel power = core::UnifiedModel::fit(
        bm.dataset, core::TargetKind::Power, core::extended_power_options());

    // Always-default baseline.
    Outcome base;
    for (const core::Sample& s : bm.dataset.samples) {
      for (const core::Measurement& m : s.runs) {
        if (!(m.pair == sim::kDefaultPair)) continue;
        base.energy_j += m.energy.as_joules();
        base.time_s += m.exec_time.as_seconds();
        base.edp += m.energy.as_joules() * m.exec_time.as_seconds();
      }
    }

    AsciiTable table({"policy", "energy vs default", "time vs default",
                      "EDP vs default", "switches", "cap misses"});
    for (core::GovernorPolicy policy :
         {core::GovernorPolicy::MinimumEnergy, core::GovernorPolicy::MinimumEdp,
          core::GovernorPolicy::PowerCap}) {
      core::GovernorOptions opt;
      opt.policy = policy;
      opt.power_cap = Power::watts(170.0);
      const Outcome o = run_policy(bm, power, opt);
      auto pct = [](double v, double b) {
        return format_double((v / b - 1.0) * 100.0, 1) + "%";
      };
      table.add_row({core::to_string(policy), pct(o.energy_j, base.energy_j),
                     pct(o.time_s, base.time_s), pct(o.edp, base.edp),
                     std::to_string(o.switches),
                     std::to_string(o.cap_violations)});
      csv.row({sim::to_string(model), core::to_string(policy),
               format_double((o.energy_j / base.energy_j - 1.0) * 100.0, 2),
               format_double((o.time_s / base.time_s - 1.0) * 100.0, 2),
               format_double((o.edp / base.edp - 1.0) * 100.0, 2),
               std::to_string(o.switches), std::to_string(o.cap_violations)});
    }
    std::cout << sim::to_string(model) << " (cap policy budget 170 W):\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  bench::end_csv();
  std::cout << "Expected: min-energy trades runtime for the largest energy "
               "cut; min-EDP stays\ncloser to default performance; the cap "
               "policy keeps measured power near budget\nwith few misses "
               "(misses quantify model error at the cap boundary).\n";
  return 0;
}
