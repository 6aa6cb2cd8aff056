#include "linalg/gram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gppm::linalg {

GramSystem build_gram_system(const Matrix& candidates, const Vector& y) {
  GPPM_CHECK(!candidates.empty(), "gram of empty matrix");
  GPPM_CHECK(candidates.rows() == y.size(), "X/y row mismatch");
  const std::size_t n = candidates.rows();
  const std::size_t p = candidates.cols();

  GramSystem gs;
  gs.n_rows = n;
  gs.n_candidates = p;
  gs.intercept = Vector(p + 1, 0.0);
  gs.xty = Vector(p + 1, 0.0);
  gs.col_scale = Vector(p + 1, 0.0);

  double sum_y = 0.0;
  for (double v : y) {
    sum_y += v;
    gs.yty += v * v;
  }
  gs.tss = gs.yty - sum_y * sum_y / static_cast<double>(n);

  // Transpose once into the column panel: candidate column j becomes panel
  // row j, contiguous, so every dot below and in column() is a
  // straight-line SIMD kernel.
  gs.panel = candidates.transposed();

  // Column norms (= the lstsq equilibration scales) and the intercept
  // terms.  lstsq takes the same simd::dot over its contiguous copy of each
  // column, so the scales equal its ones bit for bit.
  gs.col_scale[0] = std::sqrt(static_cast<double>(n));
  gs.xty[0] = sum_y / gs.col_scale[0];
  gs.intercept[0] = 1.0;
  const double* yp = y.data();
  for (std::size_t j = 0; j < p; ++j) {
    const double* cj = gs.panel.row_ptr(j);
    const double sj = std::sqrt(simd::dot(cj, cj, n));
    gs.col_scale[j + 1] = sj;
    if (sj <= 0.0) continue;  // all-zero column: stays 0, never selectable
    double col_sum = 0.0;
    double cy = 0.0;
    simd::sum_dot(cj, yp, n, col_sum, cy);
    gs.intercept[j + 1] = col_sum / (gs.col_scale[0] * sj);
    gs.xty[j + 1] = cy / sj;
  }
  return gs;
}

void GramSystem::column(std::size_t a, double* out) const {
  GPPM_CHECK(a <= n_candidates, "gram column out of range");
  const std::size_t p = n_candidates;
  const double sa = col_scale[a];
  if (a == 0) {
    std::copy(intercept.begin(), intercept.end(), out);
    return;
  }
  if (sa <= 0.0) {
    std::fill(out, out + p + 1, 0.0);
    return;
  }
  out[0] = intercept[a];
  for (std::size_t d = 1; d <= p; ++d) {
    if (d == a) {
      out[d] = 1.0;
    } else if (col_scale[d] <= 0.0) {
      out[d] = 0.0;
    } else {
      const std::size_t lo = std::min(a, d), hi = std::max(a, d);
      out[d] = simd::dot(panel.row_ptr(lo - 1), panel.row_ptr(hi - 1),
                         n_rows) /
               (col_scale[lo] * col_scale[hi]);
    }
  }
}

}  // namespace gppm::linalg
