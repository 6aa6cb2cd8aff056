// Bitwise parity of the linalg hot paths that were rewritten onto the
// SIMD kernels: the strided Matrix reductions against their contiguous
// equivalents, and the Gram column panel against the source matrix.
//
// Everything here compares raw bit patterns (std::bit_cast), because the
// contract under test is "the SIMD rewrite changed the speed and nothing
// else" — across backends AND across memory layouts of the same data.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "linalg/gram.hpp"
#include "linalg/matrix.hpp"

namespace {

using gppm::Rng;
using gppm::linalg::Matrix;
using gppm::linalg::Vector;
using gppm::linalg::build_gram_system;
using gppm::linalg::GramSystem;
namespace simd = gppm::simd;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal(0.0, 2.0);
  }
  return m;
}

TEST(SimdLinalgParity, ColDotMatchesContiguousCopyBitwise) {
  Rng rng(31);
  // Row counts straddle the 8-lane block boundary on purpose.
  for (std::size_t rows : {1ul, 7ul, 8ul, 9ul, 33ul, 100ul}) {
    const Matrix m = random_matrix(rng, rows, 5);
    for (std::size_t c1 = 0; c1 < m.cols(); ++c1) {
      for (std::size_t c2 = 0; c2 < m.cols(); ++c2) {
        std::vector<double> a(rows), b(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          a[r] = m(r, c1);
          b[r] = m(r, c2);
        }
        EXPECT_EQ(bits(m.col_dot(c1, c2)),
                  bits(simd::scalar::dot(a.data(), b.data(), rows)))
            << "rows=" << rows << " c1=" << c1 << " c2=" << c2;
      }
    }
  }
}

TEST(SimdLinalgParity, RowDotMatchesScalarReference) {
  Rng rng(37);
  const Matrix m = random_matrix(rng, 4, 23);
  for (std::size_t r1 = 0; r1 < m.rows(); ++r1) {
    for (std::size_t r2 = 0; r2 < m.rows(); ++r2) {
      EXPECT_EQ(bits(m.row_dot(r1, r2)),
                bits(simd::scalar::dot(m.row_ptr(r1), m.row_ptr(r2),
                                       m.cols())));
    }
  }
}

TEST(SimdLinalgParity, GramPanelIsExactColumnTranspose) {
  Rng rng(41);
  const std::size_t n = 57, p = 9;
  const Matrix candidates = random_matrix(rng, n, p);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = rng.normal();
  const GramSystem gs = build_gram_system(candidates, y);
  ASSERT_EQ(gs.panel.rows(), p);
  ASSERT_EQ(gs.panel.cols(), n);
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(gs.panel(j, i)), bits(candidates(i, j)));
    }
  }
}

TEST(SimdLinalgParity, GramEntriesMatchStridedColDotBitwise) {
  // GramSystem::column computes every cross term from the contiguous
  // panel; the equilibration in lstsq computes the same quantities through
  // the strided col_dot.  They must agree to the bit or the two engines
  // drift.  Every entry of every column is checked, with one all-zero
  // column among the candidates and row counts on both sides of the 8-lane
  // block.
  Rng rng(43);
  for (std::size_t n : {40ul, 45ul}) {
    const std::size_t p = 6;
    Matrix candidates = random_matrix(rng, n, p);
    for (std::size_t r = 0; r < n; ++r) candidates(r, 4) = 0.0;
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = rng.normal();
    const GramSystem gs = build_gram_system(candidates, y);
    // The design [1 | X], row-major, for the strided reference.
    Matrix design(n, p + 1);
    for (std::size_t r = 0; r < n; ++r) {
      design(r, 0) = 1.0;
      for (std::size_t c = 0; c < p; ++c) design(r, c + 1) = candidates(r, c);
    }
    Vector column(p + 1);
    for (std::size_t a = 0; a <= p; ++a) {
      gs.column(a, column.data());
      for (std::size_t d = 0; d <= p; ++d) {
        const std::size_t lo = std::min(a, d), hi = std::max(a, d);
        double expected = 0.0;
        if (gs.col_scale[lo] <= 0.0 || gs.col_scale[hi] <= 0.0) {
          expected = 0.0;  // an all-zero column is never selectable
        } else if (lo == hi) {
          // The diagonal is pinned to exactly 1.0 by construction (the
          // scale IS the column norm); dot/norm^2 would differ by rounding.
          expected = 1.0;
        } else {
          expected = design.col_dot(lo, hi) /
                     (gs.col_scale[lo] * gs.col_scale[hi]);
        }
        EXPECT_EQ(bits(column[d]), bits(expected))
            << "n=" << n << " a=" << a << " d=" << d;
      }
    }
  }
}

}  // namespace
