#include "stats/forward_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "linalg/gram.hpp"
#include "linalg/lstsq.hpp"
#include "obs/obs.hpp"
#include "stats/gram_scorer.hpp"

namespace gppm::stats {

namespace {

// Selection-engine instruments, cached once; every record below is a single
// enabled-flag branch when obs is off, keeping the hot path at reference
// speed.
struct SelectionInstruments {
  obs::Counter& steps;
  obs::Counter& candidates_scored;
  obs::Counter& qr_confirms;

  static SelectionInstruments& instance() {
    static SelectionInstruments* in = new SelectionInstruments{
        obs::Registry::instance().counter("select.steps"),
        obs::Registry::instance().counter("select.candidates_scored"),
        obs::Registry::instance().counter("select.qr_confirms"),
    };
    return *in;
  }
};

// Registered when the library loads, not at the first fit's first step:
// registered there, the registry's nodes were allocated above that fit's
// buffers and, as the highest live blocks of the heap, kept it from
// shrinking after later fits (about 2 MB more stayed resident after the
// served workloads' setup fits).
[[maybe_unused]] SelectionInstruments& registered_at_load =
    SelectionInstruments::instance();

}  // namespace

linalg::Matrix gather_columns(const linalg::Matrix& m,
                              const std::vector<std::size_t>& cols) {
  linalg::Matrix out(m.rows(), cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    GPPM_CHECK(cols[j] < m.cols(), "column index out of range");
    for (std::size_t i = 0; i < m.rows(); ++i) out(i, j) = m(i, cols[j]);
  }
  return out;
}

bool is_constant_column(const double* values, std::size_t n) {
  GPPM_CHECK(n > 0, "empty column");
  // lo/hi follow a std::min/std::max scan in row order: a NaN first value
  // sticks (the spread is NaN, so the column is not constant) and a later
  // NaN never compares in.  Without NaNs min and max do not depend on the
  // order, so eight independent lanes (which the compiler vectorizes) reach
  // the same lo and hi, up to the sign of a zero, which the decision below
  // cannot see.
  const double first = values[0];
  if (std::isnan(first)) return false;
  constexpr std::size_t kLanes = 8;
  double lo[kLanes], hi[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) lo[l] = hi[l] = first;
  const std::size_t n8 = n & ~(kLanes - 1);
  for (std::size_t i = 0; i < n8; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double v = values[i + l];
      lo[l] = v < lo[l] ? v : lo[l];
      hi[l] = hi[l] < v ? v : hi[l];
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    lo[0] = values[i] < lo[0] ? values[i] : lo[0];
    hi[0] = hi[0] < values[i] ? values[i] : hi[0];
  }
  for (std::size_t l = 1; l < kLanes; ++l) {
    lo[0] = std::min(lo[0], lo[l]);
    hi[0] = std::max(hi[0], hi[l]);
  }
  const double magnitude = std::max(std::abs(lo[0]), std::abs(hi[0]));
  return hi[0] - lo[0] <= magnitude * 1e-12;
}

namespace {

/// Candidate columns the engines must ignore up front, screened from the
/// column panel (row c = candidate column c, contiguous).  A column whose
/// spread is negligible *relative to its magnitude* can never improve the
/// fit beyond the intercept; it only costs a rank-deficient trial solve per
/// step.  The relative tolerance also catches columns that are constant up
/// to rounding (e.g. a counter rate quantized at 1e-12 of its value), which
/// an exact equality test lets through.
std::vector<bool> excluded_columns(const linalg::Matrix& panel) {
  obs::ObsSpan span("select.screen");
  std::vector<bool> used(panel.rows(), false);
  for (std::size_t c = 0; c < panel.rows(); ++c) {
    used[c] = is_constant_column(panel.row_ptr(c), panel.cols());
  }
  return used;
}

std::size_t selection_cap(const linalg::Matrix& candidates,
                          const SelectionOptions& options) {
  return std::min(options.max_variables,
                  candidates.rows() >= 2 ? candidates.rows() - 2
                                         : static_cast<std::size_t>(0));
}

/// Reference engine: refit every trial model from scratch by QR.
SelectionResult forward_select_naive(const linalg::Matrix& candidates,
                                     const linalg::Vector& y,
                                     const SelectionOptions& options) {
  const std::size_t n_candidates = candidates.cols();
  std::vector<bool> used = excluded_columns(candidates.transposed());

  SelectionResult result;
  double best_adj_r2 = -std::numeric_limits<double>::infinity();
  const std::size_t cap = selection_cap(candidates, options);

  while (result.selected.size() < cap) {
    std::size_t best_c = n_candidates;
    double best_step_r2 = best_adj_r2;
    OlsFit best_fit;

    for (std::size_t c = 0; c < n_candidates; ++c) {
      if (used[c]) continue;
      std::vector<std::size_t> trial = result.selected;
      trial.push_back(c);
      const OlsFit fit = ols_fit(gather_columns(candidates, trial), y);
      if (!fit.full_rank) continue;  // collinear with current model
      if (fit.adjusted_r_squared > best_step_r2) {
        best_step_r2 = fit.adjusted_r_squared;
        best_c = c;
        best_fit = fit;
      }
    }

    if (best_c == n_candidates) break;  // nothing improves
    if (!result.selected.empty() &&
        best_step_r2 - best_adj_r2 < options.min_improvement) {
      break;
    }

    used[best_c] = true;
    result.selected.push_back(best_c);
    result.fit = best_fit;
    result.r2_trace.push_back(best_step_r2);
    result.prefix_fits.push_back(std::move(best_fit));
    best_adj_r2 = best_step_r2;
  }
  return result;
}

SelectionResult forward_select_incremental(const linalg::Matrix& candidates,
                                           const linalg::Vector& y,
                                           const SelectionOptions& options) {
  const std::size_t n_candidates = candidates.cols();
  const std::size_t cap = selection_cap(candidates, options);

  const linalg::GramSystem gs = [&] {
    obs::ObsSpan span("select.gram");
    return linalg::build_gram_system(candidates, y);
  }();
  std::vector<bool> used = excluded_columns(gs.panel);
  GramScorer scorer(gs, cap);

  // The accepted model's design [1 | selected...] in one QR, grown by one
  // column per accepted variable and read from the Gram system's column
  // panel.  A confirm appends its candidate's column as a trial, which the
  // next confirm drops again.  The step's winner is usually the candidate
  // confirmed last, so accepting it usually just keeps its column.
  const linalg::Vector ones(candidates.rows(), 1.0);
  linalg::IncrementalLstsq model(y);
  model.append(ones.data());
  std::size_t trial = n_candidates;  // candidate appended as a trial, if any
  const auto append_trial = [&](std::size_t c) {
    if (trial == c) return;
    if (trial != n_candidates) model.pop_back();
    model.append(gs.panel.row_ptr(c));
    trial = c;
  };
  const double tss = total_sum_of_squares(y, /*fit_intercept=*/true);

  SelectionResult result;
  double best_adj_r2 = -std::numeric_limits<double>::infinity();
  // Width of the window (below the best score) within which Gram-based
  // scores cannot be trusted to rank candidates: anything this close to the
  // top is re-scored by the exact QR fit before the argmax decides.
  const double score_slack = std::max(options.min_improvement, 1e-9);

  std::vector<double> scores(n_candidates);
  std::vector<bool> confirmed(n_candidates);
  std::vector<OlsFit> exact_fits(n_candidates);

  // Replace candidate c's Gram score with its exact QR adjusted R^2 (NaN
  // if the trial design is rank-deficient), in O(n k): the trial design is
  // the accepted one plus column c, so its QR is the accepted QR plus one
  // appended column, bit for bit what ols_fit computes from scratch.
  const auto confirm = [&](std::size_t c) {
    obs::ObsSpan span("select.confirm");
    SelectionInstruments::instance().qr_confirms.add();
    append_trial(c);
    if (model.full_rank()) {
      exact_fits[c] = ols_from_solution(model.solve(), candidates.rows(),
                                        /*fit_intercept=*/true, tss);
      scores[c] = exact_fits[c].adjusted_r_squared;
      confirmed[c] = true;
    } else {
      scores[c] = std::numeric_limits<double>::quiet_NaN();
    }
  };

  while (result.selected.size() < cap) {
    obs::ObsSpan step_span("select.step");
    SelectionInstruments::instance().steps.add();
    {
      // The Gram column of the term accepted last step, computed here
      // rather than at the accept, so the run's last accept costs none.
      obs::ObsSpan gram_span("select.gram");
      scorer.fill_columns();
    }
    {
      obs::ObsSpan score_span("select.score");
      for (std::size_t c = 0; c < n_candidates; ++c) {
        scores[c] = used[c] ? std::numeric_limits<double>::quiet_NaN()
                            : scorer.score(c);
      }
      SelectionInstruments::instance().candidates_scored.add(n_candidates);
    }
    std::fill(confirmed.begin(), confirmed.end(), false);

    bool accepted = false;
    bool stop = false;
    while (!accepted && !stop) {
      // First-index-wins argmax, matching the reference engine's ascending
      // strict-improvement scan.
      std::size_t best_c = n_candidates;
      double best_score = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < n_candidates; ++c) {
        if (std::isnan(scores[c])) continue;
        if (scores[c] > best_score) {
          best_score = scores[c];
          best_c = c;
        }
      }
      if (best_c == n_candidates) {
        stop = true;  // every remaining candidate is used or collinear
        break;
      }

      // The accept/stop decisions and the returned models must come from the
      // exact QR fit, so both engines apply tie-breaking and
      // min_improvement semantics to the same numbers.
      if (!confirmed[best_c]) {
        confirm(best_c);
        continue;  // re-rank on the exact value
      }

      // Gram scores can reorder an exact tie by a few ulps (e.g. between two
      // collinear candidates).  Confirm every candidate whose score lands in
      // the slack window below the winner, so ties compare exact-vs-exact
      // and the lowest index wins like the reference scan.
      bool window_changed = false;
      for (std::size_t c = 0; c < n_candidates; ++c) {
        if (confirmed[c] || std::isnan(scores[c])) continue;
        if (scores[c] < best_score - score_slack) continue;
        confirm(c);
        window_changed = true;
      }
      if (window_changed) continue;

      const double adj = scores[best_c];
      if (!result.selected.empty() &&
          (adj <= best_adj_r2 ||
           adj - best_adj_r2 < options.min_improvement)) {
        stop = true;
        break;
      }

      scorer.accept(best_c);
      append_trial(best_c);
      trial = n_candidates;  // the winner's column stays for good
      used[best_c] = true;
      result.selected.push_back(best_c);
      result.fit = exact_fits[best_c];
      result.r2_trace.push_back(adj);
      result.prefix_fits.push_back(std::move(exact_fits[best_c]));
      best_adj_r2 = adj;
      accepted = true;
    }
    if (stop) break;
  }
  return result;
}

}  // namespace

SelectionResult forward_select(const linalg::Matrix& candidates,
                               const linalg::Vector& y,
                               const SelectionOptions& options) {
  GPPM_CHECK(candidates.rows() == y.size(), "X/y row mismatch");
  GPPM_CHECK(candidates.rows() >= 3, "too few samples");
  GPPM_CHECK(options.max_variables >= 1, "max_variables must be >= 1");

  obs::ObsSpan span("select.run");
  SelectionResult result = options.engine == SelectionEngine::NaiveQr
                               ? forward_select_naive(candidates, y, options)
                               : forward_select_incremental(candidates, y,
                                                            options);
  GPPM_CHECK(!result.selected.empty(),
             "forward selection found no usable variable");
  return result;
}

}  // namespace gppm::stats
