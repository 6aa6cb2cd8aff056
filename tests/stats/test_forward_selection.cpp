#include "stats/forward_selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace gppm::stats {
namespace {

/// 60 samples, 8 candidates of which columns 2 and 5 generate y.
struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(double noise_sigma) {
  gppm::Rng rng(17);
  const std::size_t n = 60, p = 8;
  Problem prob{linalg::Matrix(n, p), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) prob.x(i, j) = rng.normal();
    prob.y[i] = 4.0 * prob.x(i, 2) - 3.0 * prob.x(i, 5) +
                rng.normal(0.0, noise_sigma);
  }
  return prob;
}

TEST(ForwardSelection, FindsTruePredictorsFirst) {
  const Problem prob = make_problem(0.05);
  SelectionOptions opt;
  opt.max_variables = 2;
  const SelectionResult result = forward_select(prob.x, prob.y, opt);
  ASSERT_EQ(result.selected.size(), 2u);
  std::vector<std::size_t> sorted = result.selected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{2, 5}));
  EXPECT_GT(result.fit.adjusted_r_squared, 0.99);
}

TEST(ForwardSelection, RespectsVariableCap) {
  const Problem prob = make_problem(1.0);
  SelectionOptions opt;
  opt.max_variables = 3;
  const SelectionResult result = forward_select(prob.x, prob.y, opt);
  EXPECT_LE(result.selected.size(), 3u);
}

TEST(ForwardSelection, R2TraceIsNonDecreasing) {
  const Problem prob = make_problem(0.5);
  SelectionOptions opt;
  opt.max_variables = 6;
  const SelectionResult result = forward_select(prob.x, prob.y, opt);
  for (std::size_t i = 1; i < result.r2_trace.size(); ++i) {
    EXPECT_GE(result.r2_trace[i], result.r2_trace[i - 1] - 1e-12);
  }
  EXPECT_EQ(result.r2_trace.size(), result.selected.size());
}

TEST(ForwardSelection, StopsWhenNothingImproves) {
  // y depends on one column only; selection should stop well before the cap
  // because further variables cannot improve adjusted R^2.
  gppm::Rng rng(7);
  const std::size_t n = 80;
  linalg::Matrix x(n, 6);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = rng.normal();
    y[i] = 2.0 * x(i, 0);  // exact, single-variable
  }
  SelectionOptions opt;
  opt.max_variables = 6;
  const SelectionResult result = forward_select(x, y, opt);
  EXPECT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], 0u);
}

TEST(ForwardSelection, SkipsConstantColumns) {
  gppm::Rng rng(9);
  const std::size_t n = 30;
  linalg::Matrix x(n, 3);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = 5.0;  // constant (like prof_trigger counters)
    x(i, 1) = rng.normal();
    x(i, 2) = rng.normal();
    y[i] = x(i, 1) + 0.1 * rng.normal();
  }
  const SelectionResult result = forward_select(x, y);
  for (std::size_t c : result.selected) EXPECT_NE(c, 0u);
}

TEST(ForwardSelection, SkipsCollinearCandidates) {
  gppm::Rng rng(21);
  const std::size_t n = 40;
  linalg::Matrix x(n, 3);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = 2.0 * x(i, 0);  // exact copy (scaled)
    x(i, 2) = rng.normal();
    y[i] = x(i, 0) + x(i, 2);
  }
  SelectionOptions opt;
  opt.max_variables = 3;
  const SelectionResult result = forward_select(x, y, opt);
  // Both of {0,1} cannot be selected together.
  const bool has0 = std::count(result.selected.begin(), result.selected.end(), 0u);
  const bool has1 = std::count(result.selected.begin(), result.selected.end(), 1u);
  EXPECT_FALSE(has0 && has1);
}

TEST(ForwardSelection, ValidatesInputs) {
  linalg::Matrix x(10, 2);
  EXPECT_THROW(forward_select(x, linalg::Vector(5)), gppm::Error);
  SelectionOptions opt;
  opt.max_variables = 0;
  EXPECT_THROW(forward_select(x, linalg::Vector(10), opt), gppm::Error);
}

Problem seeded_problem(std::uint64_t seed, double noise_sigma,
                       std::size_t n = 60, std::size_t p = 12) {
  gppm::Rng rng(seed);
  Problem prob{linalg::Matrix(n, p), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) prob.x(i, j) = rng.normal();
    prob.y[i] = 4.0 * prob.x(i, 2) - 3.0 * prob.x(i, 5) +
                0.5 * prob.x(i, 7) + rng.normal(0.0, noise_sigma);
  }
  return prob;
}

SelectionResult run_engine(const Problem& prob, SelectionEngine engine,
                           std::size_t max_variables) {
  SelectionOptions opt;
  opt.max_variables = max_variables;
  opt.engine = engine;
  return forward_select(prob.x, prob.y, opt);
}

/// Accepted models are QR-refit in both engines, so parity is exact — not
/// approximate: same selected order, same traces, same coefficient bits.
void expect_exact_parity(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.r2_trace, b.r2_trace);
  EXPECT_EQ(a.fit.coefficients, b.fit.coefficients);
  EXPECT_EQ(a.fit.r_squared, b.fit.r_squared);
  EXPECT_EQ(a.fit.adjusted_r_squared, b.fit.adjusted_r_squared);
  ASSERT_EQ(a.prefix_fits.size(), b.prefix_fits.size());
  for (std::size_t k = 0; k < a.prefix_fits.size(); ++k) {
    EXPECT_EQ(a.prefix_fits[k].coefficients, b.prefix_fits[k].coefficients);
  }
}

TEST(ForwardSelectionParity, IncrementalMatchesNaiveOnRandomProblems) {
  for (std::uint64_t seed : {3u, 11u, 29u, 57u}) {
    for (double noise : {0.05, 1.0, 5.0}) {
      const Problem prob = seeded_problem(seed, noise);
      const SelectionResult naive =
          run_engine(prob, SelectionEngine::NaiveQr, 8);
      const SelectionResult incr =
          run_engine(prob, SelectionEngine::IncrementalGram, 8);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " noise=" + std::to_string(noise));
      expect_exact_parity(naive, incr);
    }
  }
}

TEST(ForwardSelectionParity, ParallelMatchesSerial) {
  // Cross-validation folds and the family prefetch run whole selections on
  // the compute pool, several at once.  Each run owns its scratch, so a
  // selection inside a pool worker equals the serial one bit for bit.
  std::vector<Problem> problems;
  for (std::uint64_t seed = 101; seed < 109; ++seed) {
    problems.push_back(seeded_problem(seed, 0.8, 120, 80));
  }
  std::vector<SelectionResult> serial;
  for (const Problem& prob : problems) {
    serial.push_back(run_engine(prob, SelectionEngine::IncrementalGram, 10));
  }
  std::vector<SelectionResult> pooled(problems.size());
  gppm::parallel_for(problems.size(), [&](std::size_t i) {
    pooled[i] = run_engine(problems[i], SelectionEngine::IncrementalGram, 10);
  });
  for (std::size_t i = 0; i < problems.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(101 + i));
    expect_exact_parity(serial[i], pooled[i]);
  }
}

/// The strided std::min/std::max scan the engines screened columns with
/// before the screen moved onto the column panel.
bool strided_constant_scan(const linalg::Matrix& m, std::size_t c) {
  double lo = m(0, c), hi = m(0, c);
  for (std::size_t i = 1; i < m.rows(); ++i) {
    lo = std::min(lo, m(i, c));
    hi = std::max(hi, m(i, c));
  }
  const double magnitude = std::max(std::abs(lo), std::abs(hi));
  return hi - lo <= magnitude * 1e-12;
}

TEST(ForwardSelection, PanelScreenFlagsWhatTheStridedScanFlags) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Row counts below, at and past the screen's eight lanes, with a tail.
  for (std::size_t n : {3u, 8u, 37u, 800u}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    gppm::Rng rng(n);
    struct Column {
      const char* name;
      std::vector<double> v;
      int expected;  // 1 constant, 0 not, -1 not pinned
    };
    std::vector<Column> cols;
    const auto column = [&](const char* name, int expected, auto value) {
      Column c{name, std::vector<double>(n), expected};
      for (std::size_t i = 0; i < n; ++i) c.v[i] = value(i);
      cols.push_back(std::move(c));
    };
    const std::size_t mid = n / 2;
    column("all zero", 1, [](std::size_t) { return 0.0; });
    column("constant", 1, [](std::size_t) { return 7.5; });
    column("constant to 1e-13", 1, [&](std::size_t) {
      return 1e9 * (1.0 + 1e-13 * rng.uniform());
    });
    column("spread 1e-11", 0, [&](std::size_t i) {
      return 1e9 * (1.0 + (i == mid ? 1e-11 : 0.0));
    });
    column("mixed +-0.0", 1,
           [](std::size_t i) { return i % 3 == 1 ? -0.0 : 0.0; });
    column("-0.0 first, then +-0.0", 1,
           [](std::size_t i) { return i % 2 == 0 ? -0.0 : 0.0; });
    column("+-0.0 and one value", 0, [&](std::size_t i) {
      return i == mid ? 2.0 : (i % 2 ? -0.0 : 0.0);
    });
    column("random", 0, [&](std::size_t) { return rng.normal(); });
    column("NaN in row 0, else constant", 0,
           [&](std::size_t i) { return i == 0 ? nan : 3.0; });
    column("NaN in row 0, else random", 0,
           [&](std::size_t i) { return i == 0 ? nan : rng.normal(); });
    column("NaN mid-column, else constant", 1,
           [&](std::size_t i) { return i == mid ? nan : 3.0; });
    column("NaN last, else constant", 1,
           [&](std::size_t i) { return i + 1 == n ? nan : 3.0; });
    column("NaN mid-column, else random", 0,
           [&](std::size_t i) { return i == mid ? nan : rng.normal(); });
    column("every value NaN", 0, [&](std::size_t) { return nan; });
    column("+inf mid-column", -1,
           [&](std::size_t i) { return i == mid ? inf : rng.normal(); });
    column("-inf mid-column", -1,
           [&](std::size_t i) { return i == mid ? -inf : 1.0; });
    column("+inf and -inf", -1, [&](std::size_t i) {
      return i == 0 ? inf : (i + 1 == n ? -inf : 0.5);
    });
    column("every value +inf", -1, [&](std::size_t) { return inf; });
    column("+inf in row 0, NaN after", -1, [&](std::size_t i) {
      return i == 0 ? inf : (i == mid ? nan : 1.0);
    });

    linalg::Matrix m(n, cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      for (std::size_t i = 0; i < n; ++i) m(i, c) = cols[c].v[i];
    }
    const linalg::Matrix panel = m.transposed();
    for (std::size_t c = 0; c < cols.size(); ++c) {
      SCOPED_TRACE(cols[c].name);
      const bool screen = is_constant_column(panel.row_ptr(c), n);
      EXPECT_EQ(screen, strided_constant_scan(m, c));
      if (cols[c].expected >= 0) {
        EXPECT_EQ(screen, cols[c].expected == 1);
      }
    }

    // One NaN at every row past the first, in a constant and in a random
    // column: the screen must skip it wherever it falls, vector lanes and
    // tail alike.
    std::vector<double> constant(n, 3.0), random(n);
    for (double& v : random) v = rng.normal();
    for (std::size_t at = 1; at < n; ++at) {
      SCOPED_TRACE("NaN at row " + std::to_string(at));
      for (const std::vector<double>* base : {&constant, &random}) {
        std::vector<double> v = *base;
        v[at] = nan;
        linalg::Matrix one(n, 1);
        for (std::size_t i = 0; i < n; ++i) one(i, 0) = v[i];
        const bool screen = is_constant_column(v.data(), n);
        EXPECT_EQ(screen, strided_constant_scan(one, 0));
        if (base == &constant) {
          EXPECT_TRUE(screen);
        }
      }
    }
  }
}

TEST(ForwardSelectionParity, MatchesNaiveWithDegenerateColumns) {
  gppm::Rng rng(33);
  const std::size_t n = 50;
  Problem prob{linalg::Matrix(n, 8), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    prob.x(i, 0) = rng.normal();
    prob.x(i, 1) = 7.5;                                // constant
    prob.x(i, 2) = -3.0 * prob.x(i, 0);                // collinear with 0
    prob.x(i, 3) = rng.normal();
    prob.x(i, 4) = 0.0;                                // all-zero
    prob.x(i, 5) = prob.x(i, 0) + prob.x(i, 3);        // sum of 0 and 3
    prob.x(i, 6) = rng.normal();
    prob.x(i, 7) = 1e9 * (1.0 + 1e-15 * rng.normal()); // constant up to noise
    prob.y[i] = 2.0 * prob.x(i, 0) - prob.x(i, 3) + 0.5 * prob.x(i, 6) +
                rng.normal(0.0, 0.3);
  }
  const SelectionResult naive =
      run_engine(prob, SelectionEngine::NaiveQr, 8);
  const SelectionResult incr =
      run_engine(prob, SelectionEngine::IncrementalGram, 8);
  expect_exact_parity(naive, incr);
  for (std::size_t c : incr.selected) {
    EXPECT_NE(c, 1u);
    EXPECT_NE(c, 4u);
    EXPECT_NE(c, 7u);
  }
}

TEST(ForwardSelectionParity, MinImprovementStopsBothEnginesAlike) {
  const Problem prob = seeded_problem(71, 2.0);
  for (double min_improvement : {0.0, 1e-3, 0.05}) {
    SelectionOptions opt;
    opt.max_variables = 10;
    opt.min_improvement = min_improvement;
    opt.engine = SelectionEngine::NaiveQr;
    const SelectionResult naive = forward_select(prob.x, prob.y, opt);
    opt.engine = SelectionEngine::IncrementalGram;
    const SelectionResult incr = forward_select(prob.x, prob.y, opt);
    SCOPED_TRACE("min_improvement=" + std::to_string(min_improvement));
    expect_exact_parity(naive, incr);
  }
}

TEST(ForwardSelection, PrefixFitsMatchCappedRuns) {
  // Greedy selection is prefix-consistent: capping at k must reproduce the
  // first k steps of a larger run, so prefix_fits[k-1] is exactly the model
  // a max_variables=k run would return.
  const Problem prob = seeded_problem(5, 0.5);
  const SelectionResult full =
      run_engine(prob, SelectionEngine::IncrementalGram, 6);
  ASSERT_GE(full.selected.size(), 3u);
  ASSERT_EQ(full.prefix_fits.size(), full.selected.size());
  for (std::size_t k = 1; k <= full.selected.size(); ++k) {
    const SelectionResult capped =
        run_engine(prob, SelectionEngine::IncrementalGram, k);
    ASSERT_EQ(capped.selected.size(), k);
    EXPECT_TRUE(std::equal(capped.selected.begin(), capped.selected.end(),
                           full.selected.begin()));
    EXPECT_EQ(capped.fit.coefficients, full.prefix_fits[k - 1].coefficients);
    EXPECT_EQ(capped.fit.adjusted_r_squared, full.r2_trace[k - 1]);
  }
}

TEST(ForwardSelection, ExcludesNearConstantColumns) {
  // Relative tolerance: a column hovering at 1e9 with 1e-4 absolute jitter
  // is constant for all fitting purposes (spread / magnitude ~ 1e-13), even
  // though an absolute test would keep it.
  gppm::Rng rng(13);
  const std::size_t n = 40;
  linalg::Matrix x(n, 3);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = 1e9 + 1e-4 * rng.normal();
    x(i, 1) = rng.normal();
    x(i, 2) = rng.normal();
    y[i] = 3.0 * x(i, 1) + 0.1 * rng.normal();
  }
  for (SelectionEngine engine :
       {SelectionEngine::NaiveQr, SelectionEngine::IncrementalGram}) {
    SelectionOptions opt;
    opt.engine = engine;
    const SelectionResult result = forward_select(x, y, opt);
    for (std::size_t c : result.selected) EXPECT_NE(c, 0u);
  }
}

TEST(GatherColumns, ExtractsRequestedColumns) {
  linalg::Matrix m{{1, 2, 3}, {4, 5, 6}};
  const linalg::Matrix g = gather_columns(m, {2, 0});
  EXPECT_EQ(g.cols(), 2u);
  EXPECT_EQ(g(0, 0), 3.0);
  EXPECT_EQ(g(1, 1), 4.0);
  EXPECT_THROW(gather_columns(m, {5}), gppm::Error);
}

}  // namespace
}  // namespace gppm::stats
