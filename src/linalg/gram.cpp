#include "linalg/gram.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace gppm::linalg {

GramSystem build_gram_system(const Matrix& candidates, const Vector& y,
                             bool parallel) {
  GPPM_CHECK(!candidates.empty(), "gram of empty matrix");
  GPPM_CHECK(candidates.rows() == y.size(), "X/y row mismatch");
  const std::size_t n = candidates.rows();
  const std::size_t p = candidates.cols();

  GramSystem gs;
  gs.n_rows = n;
  gs.n_candidates = p;
  gs.gram = Matrix(p + 1, p + 1);
  gs.xty = Vector(p + 1, 0.0);
  gs.col_scale = Vector(p + 1, 0.0);

  double sum_y = 0.0;
  for (double v : y) {
    sum_y += v;
    gs.yty += v * v;
  }
  gs.tss = gs.yty - sum_y * sum_y / static_cast<double>(n);

  // Transpose once into the column panel: candidate column j becomes panel
  // row j, contiguous, so every dot below is a straight-line SIMD kernel.
  gs.panel = candidates.transposed();

  // Column norms (= the lstsq equilibration scales) and the intercept
  // terms.  lstsq takes the same simd::dot over its contiguous copy of each
  // column, so the scales equal its ones bit for bit.
  gs.col_scale[0] = std::sqrt(static_cast<double>(n));
  for (std::size_t j = 0; j < p; ++j) {
    const double* cj = gs.panel.row_ptr(j);
    gs.col_scale[j + 1] = std::sqrt(simd::dot(cj, cj, n));
  }
  gs.xty[0] = sum_y / gs.col_scale[0];
  gs.gram(0, 0) = 1.0;

  // One task per design column: its cross terms against earlier columns,
  // its (unit) diagonal, and its X^T y entry.  Each Gram entry is written by
  // exactly one task with a fixed inner summation order, so parallel and
  // serial builds are bit-identical.
  const double* yp = y.data();
  const auto build_column = [&](std::size_t j) {
    const double sj = gs.col_scale[j + 1];
    if (sj <= 0.0) return;  // all-zero column: row stays 0, never selectable
    const double* cj = gs.panel.row_ptr(j);
    double col_sum = 0.0;
    double cy = 0.0;
    simd::sum_dot(cj, yp, n, col_sum, cy);
    gs.gram(0, j + 1) = col_sum / (gs.col_scale[0] * sj);
    gs.gram(j + 1, 0) = gs.gram(0, j + 1);
    gs.xty[j + 1] = cy / sj;
    gs.gram(j + 1, j + 1) = 1.0;
    for (std::size_t i = 0; i < j; ++i) {
      const double si = gs.col_scale[i + 1];
      if (si <= 0.0) continue;
      const double g = simd::dot(gs.panel.row_ptr(i), cj, n) / (si * sj);
      gs.gram(i + 1, j + 1) = g;
      gs.gram(j + 1, i + 1) = g;
    }
  };

  if (parallel && parallel_pays(n, p)) {
    gppm::parallel_for(p, build_column);
  } else {
    for (std::size_t j = 0; j < p; ++j) build_column(j);
  }
  return gs;
}

}  // namespace gppm::linalg
