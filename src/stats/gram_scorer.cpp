#include "stats/gram_scorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gppm::stats {

GramScorer::GramScorer(const linalg::GramSystem& gs, std::size_t cap)
    : gs_(gs),
      model_{0},
      lrows_{{1.0}},
      z_{gs.xty[0]},
      columns_(cap, gs.n_candidates + 1),
      w_(gs.n_candidates, cap),
      done_(gs.n_candidates, 0) {
  GPPM_CHECK(cap >= 1, "scorer needs room for the intercept");
  rss_ = gs_.yty - z_[0] * z_[0];
}

void GramScorer::fill_columns() {
  GPPM_CHECK(model_.size() <= columns_.rows(), "model past the scorer's cap");
  for (; filled_ < model_.size(); ++filled_) {
    gs_.column(model_[filled_], columns_.row_ptr(filled_));
  }
}

double GramScorer::score(std::size_t c) {
  const std::size_t d = c + 1;
  const std::size_t k = model_.size();
  GPPM_ASSERT(filled_ == k);
  if (gs_.col_scale[d] <= 0.0) {  // all-zero column
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Forward substitution, resumed where c's row stopped: entries below
  // done_[c] were computed from the same factor rows and Gram entries,
  // which never change.  The subtracted cross term is one contiguous SIMD
  // dot per row of the row-grown factor.
  double* w = w_.row_ptr(c);
  for (std::size_t i = done_[c]; i < k; ++i) {
    const double acc =
        columns_.row_ptr(i)[d] - simd::dot(lrows_[i].data(), w, i);
    w[i] = acc / lrows_[i][i];
  }
  done_[c] = k;
  double s = 0.0, zd = 0.0;
  if (!pivot(d, w, s, zd)) return std::numeric_limits<double>::quiet_NaN();
  double rss = rss_ - zd * zd;
  if (rss < 0.0) rss = 0.0;
  const double n = static_cast<double>(gs_.n_rows);
  const double params = static_cast<double>(k);  // incl. the new one
  if (gs_.tss <= 0.0) return 1.0;
  const double r2 = 1.0 - rss / gs_.tss;
  return 1.0 - (1.0 - r2) * (n - 1.0) / (n - params - 1.0);
}

void GramScorer::accept(std::size_t c) {
  const std::size_t k = model_.size();
  GPPM_CHECK(done_[c] == k, "accepting a candidate not scored this step");
  const double* w = w_.row_ptr(c);
  double s = 0.0, zd = 0.0;
  GPPM_CHECK(pivot(c + 1, w, s, zd), "accepting a collinear candidate");
  linalg::Vector row(k + 1);
  std::copy(w, w + k, row.begin());
  row[k] = std::sqrt(s);
  lrows_.push_back(std::move(row));
  z_.push_back(zd);
  rss_ -= zd * zd;
  if (rss_ < 0.0) rss_ = 0.0;
  model_.push_back(c + 1);
}

bool GramScorer::pivot(std::size_t d, const double* w, double& s,
                       double& zd) const {
  const std::size_t k = model_.size();
  s = 1.0 - simd::dot(w, w, k);
  const double wz = simd::dot(w, z_.data(), k);
  if (s <= kPivotTol) return false;
  zd = (gs_.xty[d] - wz) / std::sqrt(s);
  return true;
}

}  // namespace gppm::stats
