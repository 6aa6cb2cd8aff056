// Performance benchmark of the model-fitting pipeline: naive QR-refit
// forward selection vs the incremental Gram/Cholesky engine.  Not a paper
// artifact — this tracks the perf trajectory of the selection hot path,
// which every table/figure bench and the Fig. 7/8 sweeps sit on.
//
// Emits BENCH_selection.json (wall times + speedups, and the fit path's
// stage breakdown) into the working directory so successive runs can be
// compared, plus the usual ASCII table and CSV block.  `--smoke` runs one
// repetition of the paper-scale scenario only (used by the `bench`-labeled
// ctest smoke).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "core/features.hpp"
#include "core/unified_model.hpp"
#include "linalg/gram.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "stats/forward_selection.hpp"

namespace {

using gppm::linalg::Matrix;
using gppm::linalg::Vector;
using gppm::stats::SelectionEngine;
using gppm::stats::SelectionOptions;
using gppm::stats::SelectionResult;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Problem {
  std::string name;
  Matrix x;
  Vector y;
  std::size_t max_variables = 20;
  /// Time the naive engine too; at the scaled size it runs once, untimed,
  /// for the match check only.
  bool time_naive = true;
};

/// The paper-scale problem: the GTX 480 power regression table (one row per
/// (sample, pair), one candidate column per profiler counter) at the top of
/// the Fig. 7/8 sweep range.
Problem paper_scale_problem() {
  const gppm::bench::BoardFamilies& fam =
      gppm::bench::board_families(gppm::sim::GpuModel::GTX480);
  const gppm::core::RegressionTable table = gppm::core::build_table(
      fam.dataset, gppm::core::TargetKind::Power);
  Problem p;
  p.name = "paper_scale";
  p.x = table.features;
  p.y = table.target;
  p.max_variables = 20;
  p.time_naive = true;
  return p;
}

/// A scaled-up synthetic corpus (what the reproduction line grows toward:
/// more counters, more samples): y depends on a planted subset of columns.
Problem scaled_problem() {
  gppm::Rng rng(1234);
  const std::size_t n = 2048, p = 192;
  Problem prob;
  prob.name = "scaled";
  prob.x = Matrix(n, p);
  prob.y = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) prob.x(i, j) = rng.normal();
    double v = 0.0;
    for (std::size_t j = 0; j < 24; ++j) {
      v += (j % 2 ? -1.0 : 1.0) * (1.0 + 0.2 * static_cast<double>(j)) *
           prob.x(i, j * 7 % p);
    }
    prob.y[i] = v + rng.normal(0.0, 2.0);
  }
  prob.max_variables = 20;
  prob.time_naive = false;
  return prob;
}

struct Timing {
  double naive_ms = 0.0;
  double incremental_ms = 0.0;
  bool selected_match = false;
  double max_coeff_abs_diff = 0.0;
  std::size_t rows = 0, candidates = 0, selected = 0;
};

double time_engine(const Problem& prob, const SelectionOptions& opt, int reps,
                   SelectionResult* out) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    SelectionResult result =
        gppm::stats::forward_select(prob.x, prob.y, opt);
    const double elapsed = now_ms() - t0;
    if (r == 0 || elapsed < best) best = elapsed;
    if (r == 0 && out) *out = std::move(result);
  }
  return best;
}

Timing run_problem(const Problem& prob, int reps) {
  Timing t;
  t.rows = prob.x.rows();
  t.candidates = prob.x.cols();

  SelectionOptions naive;
  naive.max_variables = prob.max_variables;
  naive.engine = SelectionEngine::NaiveQr;

  SelectionOptions incr = naive;
  incr.engine = SelectionEngine::IncrementalGram;

  SelectionResult incr_result;
  t.incremental_ms = time_engine(prob, incr, reps, &incr_result);
  t.selected = incr_result.selected.size();

  SelectionResult naive_result;
  if (prob.time_naive) {
    t.naive_ms = time_engine(prob, naive, reps, &naive_result);
  } else {
    naive_result = gppm::stats::forward_select(prob.x, prob.y, naive);
  }
  t.selected_match = naive_result.selected == incr_result.selected;
  if (t.selected_match) {
    for (std::size_t i = 0; i < naive_result.fit.coefficients.size(); ++i) {
      const double d = std::abs(naive_result.fit.coefficients[i] -
                                incr_result.fit.coefficients[i]);
      if (d > t.max_coeff_abs_diff) t.max_coeff_abs_diff = d;
    }
  }
  return t;
}

// ---- SIMD kernel microbenches ---------------------------------------------
//
// The before/after of the hot-path SIMD pass, measured as same-source
// comparisons inside this binary: the vectorized kernels vs the identical
// 8-lane summation tree with compiler vectorization disabled (what a
// pre-SIMD build effectively executed), and the Gram column-panel build vs
// the strided column walks it replaced.

#if defined(__GNUC__) && !defined(__clang__)
#define GPPM_BENCH_NOVEC \
  __attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize")))
#else
#define GPPM_BENCH_NOVEC
#endif

/// scalar::dot with auto-vectorization off: the genuine scalar baseline.
/// (With -march=native at -O2, GCC would otherwise vectorize the 8-lane
/// reference into the very AVX2 code we are comparing against.)  noinline
/// keeps the attribute effective at every call site.
GPPM_BENCH_NOVEC __attribute__((noinline)) double dot_scalar_novec(
    const double* a, const double* b, std::size_t n) {
  return gppm::simd::scalar::dot(a, b, n);
}

struct MicrobenchResult {
  double simd_ms = 0.0;
  double scalar_ms = 0.0;
  double speedup = 0.0;
};

/// Best-of-reps wall time of `body(i)`, which must fold its work into
/// `sink`.  The iteration index feeds the body so a pure call cannot be
/// hoisted out of the timing loop.
template <typename Body>
double time_best_ms(int reps, int iters, double& sink, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    for (int i = 0; i < iters; ++i) sink += body(i);
    const double elapsed = now_ms() - t0;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

MicrobenchResult microbench_dot(int reps, int iters) {
  gppm::Rng rng(99);
  // L1-resident working set (two 8 KiB arrays), so the comparison measures
  // the kernels, not the L2 bus: at 4096 both variants are bandwidth-bound
  // and the vector speedup is hidden.
  const std::size_t n = 1024;
  // Eight extra elements so an i-dependent start offset keeps every call's
  // arguments distinct without changing the reduction length.
  // Round the bases up to 64 bytes: std::vector only guarantees 16, and a
  // misaligned base makes half the 32-byte vector loads straddle cache
  // lines, understating the kernel.
  std::vector<double> a_store(n + 24), b_store(n + 24);
  const auto align64 = [](double* p) {
    void* raw = p;
    std::size_t space = ~std::size_t{0};
    return static_cast<double*>(std::align(64, sizeof(double), raw, space));
  };
  double* a = align64(a_store.data());
  double* b = align64(b_store.data());
  for (std::size_t i = 0; i < n + 8; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  MicrobenchResult m;
  double sink = 0.0;
  // The (i & 1) * 8 start offset keeps successive calls' arguments
  // distinct (so a pure call cannot be hoisted) while staying 64-byte
  // aligned — an odd offset would split every vector load across cache
  // lines and measure the split, not the kernel.
  m.simd_ms = time_best_ms(reps, iters, sink, [&](int i) {
    const std::size_t off = static_cast<std::size_t>(i & 1) * 8;
    return gppm::simd::dot(a + off, b + off, n);
  });
  m.scalar_ms = time_best_ms(reps, iters, sink, [&](int i) {
    const std::size_t off = static_cast<std::size_t>(i & 1) * 8;
    return dot_scalar_novec(a + off, b + off, n);
  });
  m.speedup = m.simd_ms > 0.0 ? m.scalar_ms / m.simd_ms : 0.0;
  if (sink == 0.12345) std::cout << "";  // keep the sink observable
  return m;
}

/// The pre-panel Gram build: every column norm and every entry of every
/// Gram column walks two row-major columns at stride p — the code path
/// GramSystem used before the transpose-once column panel, doing the work
/// of build_gram_system plus one GramSystem::column per candidate.
double baseline_gram_strided_ms(const Matrix& x, int reps) {
  const std::size_t n = x.rows(), p = x.cols();
  const double* base = x.row_ptr(0);
  double best = 0.0;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    for (std::size_t j = 0; j < p; ++j) {
      sink += gppm::simd::dot_strided(base + j, base + j, n, p, p);
    }
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t d = 0; d < p; ++d) {
        if (d == a) continue;
        sink += gppm::simd::dot_strided(base + std::min(a, d),
                                        base + std::max(a, d), n, p, p);
      }
    }
    const double elapsed = now_ms() - t0;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  if (sink == 0.12345) std::cout << "";
  return best;
}

MicrobenchResult microbench_gram(int reps) {
  // Candidate-scoring scale: the scaled selection problem's Gram system
  // and every one of its columns.
  gppm::Rng rng(1234);
  const std::size_t n = 2048, p = 192;
  Matrix x(n, p);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) x(i, j) = rng.normal();
    y[i] = rng.normal();
  }
  MicrobenchResult m;
  Vector column(p + 1);
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    const gppm::linalg::GramSystem gs = gppm::linalg::build_gram_system(x, y);
    for (std::size_t a = 1; a <= p; ++a) {
      gs.column(a, column.data());
      sink += column[p - a + 1];
    }
    const double elapsed = now_ms() - t0;
    if (gs.n_rows != n) std::abort();
    if (r == 0 || elapsed < m.simd_ms) m.simd_ms = elapsed;
  }
  if (sink == 0.12345) std::cout << "";
  m.scalar_ms = baseline_gram_strided_ms(x, reps);
  m.speedup = m.simd_ms > 0.0 ? m.scalar_ms / m.simd_ms : 0.0;
  return m;
}

// ---- The fit path in stages ------------------------------------------------
//
// The end-to-end benchmark's fit rep (benchmark/run.sh --workload fit) fits,
// on every board, the power and exec-time families at kFamilyMaxVariables
// and the extended-form power model: 12 fits.  A traced pass sums each
// stage's spans over those fits; `other_ms` is the wall time no stage span
// covers (model assembly, the argmax loops, accepting a winner), so the
// stages add up to the wall time only when it stays small.

constexpr const char* kFitStageSpans[] = {
    "core.build_table", "select.screen", "select.gram", "select.score",
    "select.confirm"};
constexpr std::size_t kFitStageCount = std::size(kFitStageSpans);

struct FitStages {
  double wall_ms = 0.0;
  double stage_ms[kFitStageCount] = {};
  double other_ms = 0.0;
};

constexpr std::size_t kFitsPerPass = 3 * gppm::sim::kAllGpus.size();

void fit_every_board() {
  gppm::core::ModelOptions family;
  family.max_variables = gppm::bench::kFamilyMaxVariables;
  const gppm::core::ModelOptions governor =
      gppm::core::extended_power_options();
  for (gppm::sim::GpuModel gpu : gppm::sim::kAllGpus) {
    const gppm::core::Dataset& ds = gppm::bench::board_families(gpu).dataset;
    gppm::core::ModelFamily::fit(ds, gppm::core::TargetKind::Power, family);
    gppm::core::ModelFamily::fit(ds, gppm::core::TargetKind::ExecTime, family);
    gppm::core::UnifiedModel::fit(ds, gppm::core::TargetKind::Power, governor);
  }
}

/// Best-of-reps traced pass (the one with the lowest wall time).  Spans are
/// selected by their start time, so a --trace-out recording running around
/// this pass keeps its spans.
FitStages measure_fit_stages(int reps) {
  for (gppm::sim::GpuModel gpu : gppm::sim::kAllGpus) {
    gppm::bench::board_families(gpu);  // corpora built outside the timing
  }
  fit_every_board();  // warm-up
  const bool was_enabled = gppm::obs::enabled();
  gppm::obs::set_enabled(true);
  FitStages best;
  for (int r = 0; r < reps; ++r) {
    FitStages pass;
    const std::uint64_t t0 = gppm::obs::trace_now_ns();
    fit_every_board();
    const std::uint64_t t1 = gppm::obs::trace_now_ns();
    pass.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    double covered_ms = 0.0;
    for (const gppm::obs::SpanRecord& span : gppm::obs::span_snapshot()) {
      if (span.start_ns < t0 || span.start_ns > t1) continue;
      for (std::size_t i = 0; i < kFitStageCount; ++i) {
        if (std::strcmp(span.name, kFitStageSpans[i]) != 0) continue;
        const double ms = static_cast<double>(span.duration_ns) / 1e6;
        pass.stage_ms[i] += ms;
        covered_ms += ms;
      }
    }
    pass.other_ms = pass.wall_ms - covered_ms;
    if (r == 0 || pass.wall_ms < best.wall_ms) best = pass;
  }
  gppm::obs::set_enabled(was_enabled);
  return best;
}

void json_fit_stages(std::ostream& os, const char* name, const FitStages& f) {
  os << "  \"" << name << "\": {\n"
     << "    \"fits\": " << kFitsPerPass << ",\n"
     << "    \"wall_ms\": " << f.wall_ms << ",\n";
  for (std::size_t i = 0; i < kFitStageCount; ++i) {
    os << "    \"" << kFitStageSpans[i] << "_ms\": " << f.stage_ms[i] << ",\n";
  }
  os << "    \"other_ms\": " << f.other_ms << ",\n"
     << "    \"other_pct\": "
     << (f.wall_ms > 0 ? f.other_ms / f.wall_ms * 100.0 : 0.0) << "\n  },\n";
}

void json_microbench(std::ostream& os, const char* name,
                     const MicrobenchResult& m) {
  os << "  \"" << name << "\": {\n"
     << "    \"simd_ms\": " << m.simd_ms << ",\n"
     << "    \"scalar_ms\": " << m.scalar_ms << ",\n"
     << "    \"speedup\": " << m.speedup << "\n  },\n";
}

void json_scenario(std::ostream& os, const std::string& name, const Timing& t,
                   bool has_naive) {
  os << "  \"" << name << "\": {\n"
     << "    \"rows\": " << t.rows << ",\n"
     << "    \"candidates\": " << t.candidates << ",\n"
     << "    \"selected\": " << t.selected << ",\n";
  if (has_naive) {
    os << "    \"naive_ms\": " << t.naive_ms << ",\n"
       << "    \"speedup_incremental_vs_naive\": "
       << (t.incremental_ms > 0 ? t.naive_ms / t.incremental_ms : 0.0)
       << ",\n";
  }
  os << "    \"incremental_ms\": " << t.incremental_ms << ",\n"
     << "    \"max_coeff_abs_diff\": " << t.max_coeff_abs_diff << ",\n"
     << "    \"selected_match\": " << (t.selected_match ? "true" : "false")
     << "\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    // --trace-out=FILE enables gppm::obs span recording for the timed runs
    // and dumps a Chrome trace on exit.  Tracing adds overhead to the hot
    // path, so traced numbers are for span inspection, not for comparing
    // against untraced baselines.
    else if (std::strncmp(argv[i], "--trace-out=", 12) == 0)
      trace_out = argv[i] + 12;
    else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
      trace_out = argv[++i];
  }
  if (!trace_out.empty()) gppm::obs::set_enabled(true);

  gppm::bench::print_banner(
      "selection speedup",
      "Forward-selection engines: naive QR refit vs incremental "
      "Gram/Cholesky.");

  const int reps = smoke ? 1 : 3;
  const FitStages fit_stages = measure_fit_stages(smoke ? 1 : 5);
  std::vector<std::pair<Problem, Timing>> runs;
  runs.emplace_back(paper_scale_problem(), Timing{});
  if (!smoke) runs.emplace_back(scaled_problem(), Timing{});
  for (auto& [prob, timing] : runs) timing = run_problem(prob, reps);

  const MicrobenchResult dot_micro = microbench_dot(reps, smoke ? 200 : 2000);
  const MicrobenchResult gram_micro = microbench_gram(reps);
  std::cout << "microbench dot: simd " << gppm::format_double(
                   dot_micro.simd_ms, 2)
            << " ms vs scalar " << gppm::format_double(dot_micro.scalar_ms, 2)
            << " ms (" << gppm::format_double(dot_micro.speedup, 1) << "x, "
            << gppm::simd::kBackend << ")\n"
            << "microbench gram: panel "
            << gppm::format_double(gram_micro.simd_ms, 2) << " ms vs strided "
            << gppm::format_double(gram_micro.scalar_ms, 2) << " ms ("
            << gppm::format_double(gram_micro.speedup, 1) << "x)\n";

  gppm::AsciiTable table({"scenario", "rows", "cands", "naive ms",
                          "incremental ms", "speedup", "match"});
  for (const auto& [prob, t] : runs) {
    table.add_row(
        {prob.name, std::to_string(t.rows), std::to_string(t.candidates),
         prob.time_naive ? gppm::format_double(t.naive_ms, 2) : "-",
         gppm::format_double(t.incremental_ms, 2),
         prob.time_naive
             ? gppm::format_double(t.naive_ms / t.incremental_ms, 1) + "x"
             : "-",
         t.selected_match ? "yes" : "NO"});
  }
  table.print(std::cout);

  gppm::AsciiTable stages({"fit stage (" + std::to_string(kFitsPerPass) +
                           " fits, traced)",
                           "ms", "% of wall"});
  const auto stage_row = [&](const std::string& name, double ms) {
    stages.add_row({name, gppm::format_double(ms, 2),
                    gppm::format_double(ms / fit_stages.wall_ms * 100.0, 1)});
  };
  for (std::size_t i = 0; i < kFitStageCount; ++i) {
    stage_row(kFitStageSpans[i], fit_stages.stage_ms[i]);
  }
  stage_row("other", fit_stages.other_ms);
  stage_row("wall", fit_stages.wall_ms);
  stages.print(std::cout);

  gppm::bench::begin_csv("selection_speedup");
  std::cout << "scenario,rows,candidates,naive_ms,incremental_ms,"
               "selected_match\n";
  for (const auto& [prob, t] : runs) {
    std::cout << prob.name << "," << t.rows << "," << t.candidates << ","
              << t.naive_ms << "," << t.incremental_ms << ","
              << (t.selected_match ? 1 : 0) << "\n";
  }
  gppm::bench::end_csv();

  {
    std::ofstream json("BENCH_selection.json");
    json << "{\n  \"schema\": \"gppm.bench_selection.v3\",\n";
    gppm::bench::json_env_stamp(json, smoke);
    // Pre-SIMD trajectory anchor: the paper_scale numbers this bench
    // recorded immediately before the vectorized Gram/Cholesky pass
    // (smoke run, 2 threads, scalar strided kernels).
    json << "  \"baseline_pre_simd\": {\n"
         << "    \"paper_scale_naive_ms\": 901.483,\n"
         << "    \"paper_scale_incremental_ms\": 19.0978\n  },\n";
    json_fit_stages(json, "fit_stages", fit_stages);
    // Fit-path trajectory anchor: the fit_stages pass immediately before
    // the row-pointer table build, the panel-side column screen and the
    // allocation-free scoring (per-stage medians of 8 runs alternating
    // with the change, pinned to one CPU of a 4-vCPU Xeon VM).
    json << "  \"fit_stages_before_contiguous_passes\": {\n"
         << "    \"wall_ms\": 15.610,\n"
         << "    \"core.build_table_ms\": 3.422,\n"
         << "    \"select.screen_ms\": 1.759,\n"
         << "    \"select.gram_ms\": 3.487,\n"
         << "    \"select.score_ms\": 1.462,\n"
         << "    \"select.confirm_ms\": 5.058,\n"
         << "    \"other_ms\": 0.451\n  },\n";
    // The pass immediately before the Gram columns on demand, the scorer's
    // kept substitution rows and the once-sized confirm QR (per-stage
    // medians of 8 runs alternating with the change, pinned to one CPU of
    // a 4-vCPU Xeon VM).
    json << "  \"fit_stages_before_gram_on_demand\": {\n"
         << "    \"wall_ms\": 10.193,\n"
         << "    \"core.build_table_ms\": 0.804,\n"
         << "    \"select.screen_ms\": 0.100,\n"
         << "    \"select.gram_ms\": 3.234,\n"
         << "    \"select.score_ms\": 1.098,\n"
         << "    \"select.confirm_ms\": 4.516,\n"
         << "    \"other_ms\": 0.420\n  },\n";
    json_microbench(json, "microbench_dot", dot_micro);
    json_microbench(json, "microbench_gram", gram_micro);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      json_scenario(json, runs[i].first.name, runs[i].second,
                    runs[i].first.time_naive);
      json << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    json << "}\n";
  }
  std::cout << "wrote BENCH_selection.json\n";

  if (!trace_out.empty()) {
    gppm::obs::write_trace_file(trace_out);
    std::cout << "wrote " << trace_out << " ("
              << gppm::obs::span_snapshot().size() << " spans, "
              << gppm::obs::spans_dropped() << " dropped)\n";
  }

  // The smoke run doubles as a correctness gate: the engines must agree.
  for (const auto& [prob, t] : runs) {
    if (!t.selected_match) {
      std::cerr << "engine mismatch on " << prob.name << "\n";
      return 1;
    }
  }
  return 0;
}
