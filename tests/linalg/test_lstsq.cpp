#include "linalg/lstsq.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gppm::linalg {
namespace {

TEST(Lstsq, ExactSystemRecovered) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b = a * Vector{2.0, -3.0};
  const LstsqResult r = lstsq(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);
  EXPECT_NEAR(r.x[1], -3.0, 1e-12);
  EXPECT_NEAR(r.residual_ss, 0.0, 1e-18);
  EXPECT_TRUE(r.full_rank);
}

TEST(Lstsq, MinimizesResidualOnOverdetermined) {
  // y = 2x fit over noisy points; solution must be near 2 and the residual
  // must not exceed that of the true coefficient.
  gppm::Rng rng(5);
  const std::size_t n = 200;
  Matrix a(n, 1);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    a(i, 0) = x;
    b[i] = 2.0 * x + rng.normal(0.0, 0.1);
  }
  const LstsqResult r = lstsq(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 0.01);

  double true_ss = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double res = b[i] - 2.0 * a(i, 0);
    true_ss += res * res;
  }
  EXPECT_LE(r.residual_ss, true_ss + 1e-9);
}

TEST(Lstsq, HandlesWildColumnScales) {
  // Columns spanning 12 orders of magnitude — the regime the regression
  // layer actually produces (counter totals vs intercept-scale features).
  Matrix a(6, 2);
  Vector b(6);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = 1e-6 * static_cast<double>(i + 1);
    a(i, 1) = 1e6 * static_cast<double>((i * 7) % 5 + 1);
    b[i] = 3.0 * a(i, 0) + 2e-6 * a(i, 1);
  }
  const LstsqResult r = lstsq(a, b);
  EXPECT_NEAR(r.x[0], 3.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2e-6, 1e-12);
}

TEST(Lstsq, RankDeficientStillSolves) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // collinear
  }
  const Vector b{2, 4, 6, 8};
  const LstsqResult r = lstsq(a, b);
  EXPECT_FALSE(r.full_rank);
  // Prediction must still reproduce b even if the split between the two
  // collinear coefficients is arbitrary.
  const Vector pred = a * r.x;
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(pred[i], b[i], 1e-6);
}

TEST(IncrementalLstsq, MatchesLstsqAfterTrialColumns) {
  // Every prefix of a design, reached through appends with trial columns
  // appended and popped in between, solves bit for bit like lstsq of that
  // prefix — the equality forward selection's confirms rely on.
  gppm::Rng rng(21);
  const std::size_t n = 30, p = 5;
  std::vector<Vector> cols(p, Vector(n));
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    cols[0][i] = 1.0;
    cols[1][i] = 1e-6 * rng.normal();
    cols[2][i] = 1e6 * rng.normal();
    cols[3][i] = 2.0 * cols[1][i];  // collinear with column 1
    cols[4][i] = rng.normal();
    b[i] = 3.0 + 1e6 * cols[1][i] + rng.normal(0.0, 0.1);
  }
  const Vector trial = cols[4];
  IncrementalLstsq solver(b);
  for (std::size_t j = 0; j < p; ++j) {
    solver.append(trial.data());
    solver.pop_back();
    solver.append(cols[j].data());
    Matrix a(n, j + 1);
    for (std::size_t c = 0; c <= j; ++c) a.set_col(c, cols[c]);
    const LstsqResult want = lstsq(a, b);
    const LstsqResult got = solver.solve();
    SCOPED_TRACE("columns=" + std::to_string(j + 1));
    EXPECT_EQ(got.x, want.x);
    EXPECT_EQ(got.residual_ss, want.residual_ss);
    EXPECT_EQ(got.full_rank, want.full_rank);
    EXPECT_EQ(solver.full_rank(), j < 3);
  }
}

TEST(Lstsq, RejectsBadInputs) {
  EXPECT_THROW(lstsq(Matrix(), Vector{}), gppm::Error);
  EXPECT_THROW(lstsq(Matrix(3, 2), Vector{1, 2}), gppm::Error);   // rhs size
  EXPECT_THROW(lstsq(Matrix(2, 3), Vector{1, 2}), gppm::Error);   // wide
}

}  // namespace
}  // namespace gppm::linalg
