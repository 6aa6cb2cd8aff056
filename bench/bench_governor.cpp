// Closed-loop governor verification: online decisions vs TABLE IV.
//
// Runs the full online DVFS loop (profile -> decide -> VBIOS apply ->
// measure -> refit) over a drifting phase schedule drawn from the paper's
// benchmark suite, on every board generation, and gates the realized
// energy against the offline references:
//
//   * oracle gate  — governed energy within 5 % of the per-phase
//     offline-optimal (TABLE IV's best pair, re-derived per phase by a
//     full pair sweep);
//   * static gate  — governed energy strictly below the always-(H-H)
//     baseline on *every* board generation;
//   * ordering gate — realized savings grow across generations the way
//     the paper's Fig. 4 margins do (GTX 285 < Fermi boards < GTX 680);
//   * transition gate — reboots == switches (same-pair decisions are
//     controller no-ops) and switches < decisions (hysteresis holds at
//     least once).
//
// Emits BENCH_governor.json (shared env stamp); exits nonzero if any gate
// fails.  --smoke shortens the schedule for the ctest wrapper.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "governor/loop.hpp"

using namespace gppm;

namespace {

struct BoardRun {
  sim::GpuModel model = sim::GpuModel::GTX680;
  governor::LoopResult result;
  double saving_pct = 0.0;      ///< vs static (H-H)
  double oracle_gap_pct = 0.0;  ///< governed over offline-optimal
};

BoardRun run_board(sim::GpuModel model, std::size_t phase_count) {
  const bench::BoardFamilies& fam = bench::board_families(model);

  governor::LoopOptions opt;
  opt.governor.policy = core::GovernorPolicy::MinimumEnergy;
  governor::GovernorLoop loop(
      model, fam.dataset,
      core::UnifiedModel::fit(fam.dataset, core::TargetKind::Power,
                              core::extended_power_options()),
      fam.perf.at(10), opt);

  workload::PhaseScheduleOptions sched;
  sched.phases = phase_count;
  sched.seed = bench::kCampaignSeed;
  const std::vector<workload::Phase> phases = workload::phase_schedule(
      sched, profiler::CudaProfiler::unsupported_benchmarks());

  BoardRun run;
  run.model = model;
  run.result = loop.run(phases);
  run.saving_pct = (1.0 - run.result.governed_energy_joules /
                              run.result.default_energy_joules) * 100.0;
  run.oracle_gap_pct = (run.result.governed_energy_joules /
                            run.result.oracle_energy_joules - 1.0) * 100.0;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t phase_count = smoke ? 12 : 48;

  bench::print_banner(
      "Closed-loop governor vs TABLE IV",
      "Online profile->decide->apply->measure->refit loop over a drifting "
      "phase schedule; energy gated against the per-phase offline optimum "
      "and the static (H-H) baseline on every board generation.");

  bench::prefetch_board_families();
  std::vector<BoardRun> runs;
  for (sim::GpuModel model : sim::kAllGpus) {
    runs.push_back(run_board(model, phase_count));
  }

  AsciiTable table({"gpu", "phases", "governed J", "static J", "oracle J",
                    "saving %", "oracle gap %", "switches", "reboots",
                    "refits"});
  for (const BoardRun& run : runs) {
    table.add_row({sim::to_string(run.model),
                   std::to_string(run.result.phases.size()),
                   format_double(run.result.governed_energy_joules, 0),
                   format_double(run.result.default_energy_joules, 0),
                   format_double(run.result.oracle_energy_joules, 0),
                   format_double(run.saving_pct, 1),
                   format_double(run.oracle_gap_pct, 2),
                   std::to_string(run.result.switches),
                   std::to_string(run.result.reboots),
                   std::to_string(run.result.refits)});
  }
  table.print(std::cout);

  // Gates.
  bool oracle_ok = true, static_ok = true, transition_ok = true;
  for (const BoardRun& run : runs) {
    if (run.oracle_gap_pct > 5.0) oracle_ok = false;
    if (!(run.result.governed_energy_joules <
          run.result.default_energy_joules)) {
      static_ok = false;
    }
    if (run.result.reboots != run.result.switches ||
        run.result.switches >=
            static_cast<int>(run.result.phases.size())) {
      transition_ok = false;
    }
  }
  // Generation ordering of realized savings: Tesla below both Fermi
  // boards, both Fermi boards below Kepler (the Fig. 4 margin shape; the
  // two Fermi boards are too close to each other to order reliably).
  auto saving_of = [&](sim::GpuModel m) {
    for (const BoardRun& r : runs) {
      if (r.model == m) return r.saving_pct;
    }
    throw Error("board missing from runs");
  };
  const double s285 = saving_of(sim::GpuModel::GTX285);
  const double s460 = saving_of(sim::GpuModel::GTX460);
  const double s480 = saving_of(sim::GpuModel::GTX480);
  const double s680 = saving_of(sim::GpuModel::GTX680);
  const bool ordering_ok =
      s285 < s460 && s285 < s480 && s460 < s680 && s480 < s680;

  std::cout << "oracle gate (<= 5% over offline-optimal): "
            << (oracle_ok ? "held" : "BLOWN") << "\n"
            << "static gate (beats always-(H-H) on every board): "
            << (static_ok ? "held" : "BLOWN") << "\n"
            << "ordering gate (285 < Fermi < 680 savings): "
            << (ordering_ok ? "held" : "BLOWN") << "\n"
            << "transition gate (reboots == switches < phases): "
            << (transition_ok ? "held" : "BLOWN") << "\n";

  const bool ok = oracle_ok && static_ok && ordering_ok && transition_ok;
  {
    std::ofstream json("BENCH_governor.json");
    json << "{\n  \"schema\": \"gppm.bench_governor.v1\",\n";
    bench::json_env_stamp(json, smoke);
    json << "  \"policy\": \"min-energy\",\n"
         << "  \"phase_count\": " << phase_count << ",\n"
         << "  \"paper_fig4_margins_pct\": {\"gtx285\": 13, \"gtx460\": 39, "
            "\"gtx480\": 40, \"gtx680\": 75},\n"
         << "  \"boards\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const BoardRun& run = runs[i];
      json << "    {\"gpu\": \"" << sim::to_string(run.model) << "\""
           << ", \"phases\": " << run.result.phases.size()
           << ", \"governed_j\": "
           << format_double(run.result.governed_energy_joules, 1)
           << ", \"static_j\": "
           << format_double(run.result.default_energy_joules, 1)
           << ", \"oracle_j\": "
           << format_double(run.result.oracle_energy_joules, 1)
           << ", \"saving_pct\": " << format_double(run.saving_pct, 2)
           << ", \"oracle_gap_pct\": "
           << format_double(run.oracle_gap_pct, 2)
           << ", \"switches\": " << run.result.switches
           << ", \"reboots\": " << run.result.reboots
           << ", \"refits\": " << run.result.refits << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"gates\": {\"oracle\": " << (oracle_ok ? "true" : "false")
         << ", \"static\": " << (static_ok ? "true" : "false")
         << ", \"ordering\": " << (ordering_ok ? "true" : "false")
         << ", \"transitions\": " << (transition_ok ? "true" : "false")
         << "},\n"
         << "  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  }
  std::cout << "wrote BENCH_governor.json\n";
  if (!ok) {
    std::cerr << "FAIL:" << (oracle_ok ? "" : " oracle-gate")
              << (static_ok ? "" : " static-gate")
              << (ordering_ok ? "" : " ordering-gate")
              << (transition_ok ? "" : " transition-gate") << "\n";
    return 1;
  }
  return 0;
}
