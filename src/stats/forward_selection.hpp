// Forward stepwise variable selection maximizing adjusted R^2.
//
// This is the selection procedure of the paper (Section IV-A): starting from
// the empty model, greedily add the candidate column that maximizes adjusted
// R-bar^2, stop when no candidate improves it or when the cap on the number
// of variables (10 in the paper; 5..20 in the Fig. 7/8 sweeps) is reached.
//
// Two engines implement the identical procedure:
//
//  * NaiveQr — the reference: every trial model is refit from scratch by QR
//    least squares, O(steps x candidates x n k^2).
//  * IncrementalGram (default) — X^T y and the Gram system's O(p n) parts
//    are built once; each trial is scored by extending one column of a
//    Cholesky factor of the selected submatrix of G = X^T X
//    (stats/gram_scorer.hpp).  Columns of G are computed on demand, one
//    per accepted variable, so a run to K variables costs O(K p n) in
//    Gram entries instead of the O(p^2 n) of the full matrix, and each
//    candidate's substitution grows by one entry per step, O(k) per score.
//    The step's leaders are then confirmed exactly by QR: the engine keeps
//    one Householder QR of the accepted design [1 | selected...] and
//    confirms a candidate by appending its column, solving and dropping it
//    again — O(n k) instead of an O(n k^2) refit.  Householder QR is column-sequential and every
//    reduction keeps ols_fit's order, so a confirmed fit is bit for bit the
//    ols_fit of the trial design, and selected sets, R^2 traces and
//    coefficients are identical to NaiveQr's.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/ols.hpp"

namespace gppm::stats {

/// Outcome of a forward-selection run.
struct SelectionResult {
  std::vector<std::size_t> selected;  ///< candidate column indices, in
                                      ///< the order they were added
  OlsFit fit;                         ///< final model over the selected columns
  std::vector<double> r2_trace;       ///< adjusted R^2 after each addition
  /// Fitted model after each addition; prefix_fits[k-1] is the model over
  /// the first k selected columns and prefix_fits.back() == fit.  Because
  /// greedy selection is prefix-consistent, prefix_fits[k-1] is *exactly*
  /// the model a separate run capped at k variables would produce — the
  /// nvars sweeps (Figs. 7/8) read all of 5/10/15/20 from one k=20 run.
  std::vector<OlsFit> prefix_fits;
};

/// Which implementation carries out the selection (results are identical).
enum class SelectionEngine { NaiveQr, IncrementalGram };

/// Options for forward selection.
struct SelectionOptions {
  std::size_t max_variables = 10;
  /// Stop early if the best candidate improves adjusted R^2 by less than
  /// this amount (0 reproduces "maximize" exactly; a tiny positive epsilon
  /// avoids adding numerically useless columns).
  double min_improvement = 1e-9;
  SelectionEngine engine = SelectionEngine::IncrementalGram;
};

/// Run forward selection of columns of `candidates` against target `y`.
/// Columns that are (near-)constant or collinear with the current model are
/// skipped.
SelectionResult forward_select(const linalg::Matrix& candidates,
                               const linalg::Vector& y,
                               const SelectionOptions& options = {});

/// The engines' constant-column screen over one candidate column stored
/// contiguously (a row of the GramSystem column panel; n >= 1 values): true
/// when the column's spread is at most 1e-12 of its magnitude.  A NaN first
/// value makes the column not constant; later NaNs are skipped, as a
/// std::min/std::max scan in row order skips them.
bool is_constant_column(const double* values, std::size_t n);

/// Helper: gather the given columns of a matrix into a new matrix.
linalg::Matrix gather_columns(const linalg::Matrix& m,
                              const std::vector<std::size_t>& cols);

}  // namespace gppm::stats
