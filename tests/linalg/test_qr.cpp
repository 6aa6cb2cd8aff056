#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gppm::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  gppm::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

class QrSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrSizes, ReconstructsInput) {
  const auto [rows, cols] = GetParam();
  const Matrix a = random_matrix(rows, cols, 42 + rows * 31 + cols);
  const QrResult f = qr_decompose(a);
  EXPECT_LT((f.q * f.r).max_abs_diff(a), 1e-10);
}

TEST_P(QrSizes, QHasOrthonormalColumns) {
  const auto [rows, cols] = GetParam();
  const Matrix a = random_matrix(rows, cols, 7 + rows + cols);
  const QrResult f = qr_decompose(a);
  const Matrix qtq = f.q.transposed() * f.q;
  EXPECT_LT(qtq.max_abs_diff(Matrix::identity(cols)), 1e-10);
}

TEST_P(QrSizes, RIsUpperTriangular) {
  const auto [rows, cols] = GetParam();
  const Matrix a = random_matrix(rows, cols, 99 + rows + cols);
  const QrResult f = qr_decompose(a);
  for (std::size_t r = 1; r < f.r.rows(); ++r) {
    for (std::size_t c = 0; c < r; ++c) EXPECT_EQ(f.r(r, c), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrSizes,
                         ::testing::Values(std::make_pair(3, 3),
                                           std::make_pair(5, 3),
                                           std::make_pair(10, 4),
                                           std::make_pair(50, 10),
                                           std::make_pair(200, 12),
                                           std::make_pair(4, 1)));

TEST(Qr, DetectsFullRank) {
  const Matrix a = random_matrix(20, 5, 3);
  EXPECT_TRUE(qr_decompose(a).full_rank);
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a = random_matrix(10, 3, 5);
  // Make column 2 a copy of column 0.
  for (std::size_t r = 0; r < a.rows(); ++r) a(r, 2) = a(r, 0);
  EXPECT_FALSE(qr_decompose(a).full_rank);
}

TEST(Qr, RejectsWideMatrix) {
  EXPECT_THROW(qr_decompose(Matrix(2, 5)), gppm::Error);
}

TEST(Qr, RejectsEmptyMatrix) {
  EXPECT_THROW(qr_decompose(Matrix()), gppm::Error);
}

Matrix first_columns(const Matrix& a, std::size_t n) {
  Matrix out(a.rows(), n);
  for (std::size_t j = 0; j < n; ++j) out.set_col(j, a.col(j));
  return out;
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a(i, j)),
                std::bit_cast<std::uint64_t>(b(i, j)))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(HouseholderQr, AppendingWithTrialColumnsMatchesDecompose) {
  // Forward selection appends a trial column to its accepted model's QR and
  // drops it again.  Trials must leave no trace: after every append the
  // factorization is bit for bit the one of the columns so far, including
  // an all-zero column and a copy of an earlier one (both rank-deficient).
  Matrix a = random_matrix(40, 7, 12);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    a(r, 1) *= 1e6;
    a(r, 3) = 0.0;
    a(r, 5) = a(r, 2);
  }
  const Matrix trials = random_matrix(40, 1, 13);
  HouseholderQr qr(a.rows());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (const Vector& trial : {trials.col(0), a.col(0), Vector(a.rows())}) {
      qr.append(trial.data());
      qr.pop_back();
    }
    qr.append(a.col(j).data());
    ASSERT_EQ(qr.cols(), j + 1);
    const QrResult grown = qr.result();
    const QrResult whole = qr_decompose(first_columns(a, j + 1));
    SCOPED_TRACE("columns=" + std::to_string(j + 1));
    expect_bit_identical(grown.q, whole.q);
    expect_bit_identical(grown.r, whole.r);
    EXPECT_EQ(grown.full_rank, whole.full_rank);
    EXPECT_EQ(grown.full_rank, j < 3);
  }
}

TEST(HouseholderQr, RejectsMoreColumnsThanRows) {
  HouseholderQr qr(2);
  const Vector col{1.0, 2.0};
  qr.append(col.data());
  qr.append(col.data());
  EXPECT_THROW(qr.append(col.data()), gppm::Error);
  qr.pop_back();
  qr.pop_back();
  EXPECT_THROW(qr.pop_back(), gppm::Error);
}

TEST(SolveUpperTriangular, SolvesKnownSystem) {
  Matrix r{{2, 1}, {0, 4}};
  const Vector x = solve_upper_triangular(r, {4, 8});
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(SolveUpperTriangular, RejectsSingular) {
  Matrix r{{1, 1}, {0, 0}};
  EXPECT_THROW(solve_upper_triangular(r, {1, 1}), gppm::Error);
}

TEST(SolveUpperTriangular, RejectsBadShapes) {
  EXPECT_THROW(solve_upper_triangular(Matrix(2, 3), {1, 1}), gppm::Error);
  EXPECT_THROW(solve_upper_triangular(Matrix::identity(2), {1, 1, 1}),
               gppm::Error);
}

}  // namespace
}  // namespace gppm::linalg
