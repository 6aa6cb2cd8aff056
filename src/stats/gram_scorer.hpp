// The incremental selection engine's candidate scorer.
//
// Forward selection (stats/forward_selection.hpp) prices every candidate of
// a step from the Gram system instead of refitting it.  All quantities live
// in the column-normalized design of the GramSystem (design index 0 = the
// intercept, candidate c = c + 1):
//   l = Cholesky factor of G[model, model] (row-grown, k x k)
//   z = l^{-1} xty[model], so rss = y^T y - |z|^2
// Appending design column d to the model extends the factor by
//   w = l^{-1} G[model, d],   pivot s = 1 - |w|^2,
//   z_d = (xty[d] - w.z) / sqrt(s),   rss' = rss - z_d^2,
// which prices the candidate's exact OLS residual.
//
// Nothing here is recomputed across steps.  An accept adds one row to l,
// and no earlier row of l or term of the model ever changes, so entry i of
// a candidate's w is the same number in every step after step i.  The
// scorer keeps each candidate's w and extends it by one entry per step, at
// O(k) instead of a fresh O(k^2) substitution, and it keeps the Gram
// column of each model term, computed once (GramSystem::column), so a run
// to K variables reads K columns of G and never the rest.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/gram.hpp"
#include "linalg/matrix.hpp"

namespace gppm::stats {

class GramScorer {
 public:
  /// Scorer of the intercept-only model over `gs` (borrowed: the caller
  /// keeps it alive and unchanged), with room for models of up to `cap`
  /// terms, intercept included: the most a model holds while it is still
  /// scored.
  GramScorer(const linalg::GramSystem& gs, std::size_t cap);

  /// Number of model terms, intercept included.
  std::size_t terms() const { return model_.size(); }

  /// Store the Gram column of every model term that has none yet (one
  /// GramSystem::column per accept).  Call it before each scoring round,
  /// not after an accept, so the last accept of a run costs no column.
  /// Requires terms() <= cap.
  void fill_columns();

  /// Adjusted R^2 of the model extended with candidate c, or NaN when c is
  /// an all-zero column or numerically collinear with the model.  Extends
  /// c's stored substitution, its own row of scratch, to the model's terms
  /// and allocates nothing.  Requires fill_columns() since the last accept.
  double score(std::size_t c);

  /// Extend the model with candidate c, which must have scored non-NaN
  /// against the current model.  The new factor row is c's stored
  /// substitution plus the pivot's square root.
  void accept(std::size_t c);

 private:
  /// Pivot tolerance matching the QR engine's rank test: QR flags a trial
  /// design rank-deficient when the new diagonal of R falls below 1e-12 of
  /// the largest (all <= 1 after normalization); s is that diagonal squared.
  static constexpr double kPivotTol = 1e-24;

  /// Pivot s and z_d of design column d from its substitution w over the
  /// model's terms; false when s is at most kPivotTol.
  bool pivot(std::size_t d, const double* w, double& s, double& zd) const;

  const linalg::GramSystem& gs_;
  std::vector<std::size_t> model_;     ///< design indices, intercept first
  std::vector<linalg::Vector> lrows_;  ///< row-grown lower-triangular factor
  linalg::Vector z_;
  double rss_ = 0.0;
  /// Row i: the Gram column of model term i (p + 1 entries).
  linalg::Matrix columns_;
  std::size_t filled_ = 0;  ///< rows of columns_ computed so far
  /// Row c: candidate c's substitution w, entries [0, done_[c]) current.
  linalg::Matrix w_;
  std::vector<std::size_t> done_;
};

}  // namespace gppm::stats
