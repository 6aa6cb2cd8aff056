#include "linalg/gram.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"

namespace gppm::linalg {
namespace {

Matrix random_matrix(std::size_t n, std::size_t p, std::uint64_t seed) {
  gppm::Rng rng(seed);
  Matrix x(n, p);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      // Spread column scales over orders of magnitude like counter features.
      x(i, j) = rng.normal() * std::pow(10.0, static_cast<double>(j % 7) - 3);
    }
  }
  return x;
}

TEST(GramSystem, MatchesExplicitNormalEquations) {
  const std::size_t n = 40, p = 6;
  const Matrix x = random_matrix(n, p, 5);
  gppm::Rng rng(6);
  Vector y(n);
  for (auto& v : y) v = rng.normal();

  const GramSystem gs = build_gram_system(x, y);
  ASSERT_EQ(gs.intercept.size(), p + 1);
  ASSERT_EQ(gs.n_rows, n);
  ASSERT_EQ(gs.n_candidates, p);

  // Check every column against the explicitly-built normalized design
  // [1/sqrt(n) | X D^-1].
  Vector column(p + 1);
  for (std::size_t i = 0; i <= p; ++i) {
    gs.column(i, column.data());
    EXPECT_EQ(gs.intercept[i], i == 0 ? 1.0 : column[0]);
    for (std::size_t j = 0; j <= p; ++j) {
      double raw = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double vi = i == 0 ? 1.0 : x(r, i - 1);
        const double vj = j == 0 ? 1.0 : x(r, j - 1);
        raw += vi * vj;
      }
      const double expected = raw / (gs.col_scale[i] * gs.col_scale[j]);
      EXPECT_NEAR(column[j], expected, 1e-12 * std::abs(expected) + 1e-14)
          << "entry " << i << "," << j;
    }
  }
  for (std::size_t j = 0; j <= p; ++j) {
    double raw = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      raw += (j == 0 ? 1.0 : x(r, j - 1)) * y[r];
    }
    EXPECT_NEAR(gs.xty[j], raw / gs.col_scale[j], 1e-10);
  }
}

TEST(GramSystem, ZeroColumnGetsZeroScale) {
  Matrix x(5, 2);
  for (std::size_t i = 0; i < 5; ++i) x(i, 1) = static_cast<double>(i + 1);
  const GramSystem gs = build_gram_system(x, {1, 2, 3, 4, 5});
  EXPECT_EQ(gs.col_scale[1], 0.0);
  EXPECT_EQ(gs.intercept[1], 0.0);
  EXPECT_EQ(gs.xty[1], 0.0);
  Vector column(3);
  gs.column(1, column.data());
  EXPECT_EQ(column, Vector(3, 0.0));  // never selectable, not even G(1, 1)
  gs.column(2, column.data());
  EXPECT_EQ(column[1], 0.0);
  EXPECT_EQ(column[2], 1.0);
}

TEST(GramSystem, RejectsMismatchedRows) {
  EXPECT_THROW(build_gram_system(Matrix(4, 2), Vector(3)), gppm::Error);
  const GramSystem gs = build_gram_system(Matrix(4, 2), Vector(4));
  Vector column(3);
  EXPECT_THROW(gs.column(3, column.data()), gppm::Error);
}

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  gppm::Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
  }
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(CholeskyIncremental, UpdateMatchesFreshFactorization) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::size_t n = 6;
    const Matrix a = random_spd(n, 40 + seed);
    gppm::Rng rng(50 + seed);
    Vector v(n);
    for (auto& e : v) e = rng.normal();

    Matrix updated_a = a;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) updated_a(i, j) += v[i] * v[j];
    }
    const Matrix via_update = cholesky_update(cholesky(a), v);
    EXPECT_LT(via_update.max_abs_diff(cholesky(updated_a)), 1e-9);
  }
}

TEST(CholeskyIncremental, DowndateInvertsUpdate) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const std::size_t n = 5;
    const Matrix a = random_spd(n, 60 + seed);
    gppm::Rng rng(70 + seed);
    Vector v(n);
    for (auto& e : v) e = rng.normal();

    const Matrix l = cholesky(a);
    const Matrix round_trip = cholesky_downdate(cholesky_update(l, v), v);
    EXPECT_LT(round_trip.max_abs_diff(l), 1e-8);
  }
}

TEST(CholeskyIncremental, DowndateMatchesFreshFactorization) {
  const std::size_t n = 6;
  const Matrix a = random_spd(n, 91);
  gppm::Rng rng(92);
  Vector v(n);
  for (auto& e : v) e = 0.3 * rng.normal();  // small enough to stay PD

  Matrix downdated_a = a;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) downdated_a(i, j) -= v[i] * v[j];
  }
  const Matrix via_downdate = cholesky_downdate(cholesky(a), v);
  EXPECT_LT(via_downdate.max_abs_diff(cholesky(downdated_a)), 1e-9);
}

TEST(CholeskyIncremental, DowndateRejectsIndefiniteResult) {
  const Matrix l = cholesky(Matrix{{1.0}});
  EXPECT_THROW(cholesky_downdate(l, {2.0}), gppm::Error);
}

TEST(LowerTriangularSolvers, RoundTrip) {
  const Matrix a = random_spd(7, 13);
  const Matrix l = cholesky(a);
  gppm::Rng rng(14);
  Vector x_true(7);
  for (auto& v : x_true) v = rng.normal();
  const Vector b = a * x_true;
  const Vector x = solve_lower_transposed(l, solve_lower_triangular(l, b));
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

}  // namespace
}  // namespace gppm::linalg
