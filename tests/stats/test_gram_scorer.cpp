#include "stats/gram_scorer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "linalg/gram.hpp"

namespace gppm::stats {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The reference the kept state must reproduce: every score reads the
/// candidate's own Gram column and runs the whole forward substitution over
/// the model's factor, from scratch.
class FreshScorer {
 public:
  explicit FreshScorer(const linalg::GramSystem& gs)
      : gs_(gs), z_{gs.xty[0]}, rss_(gs.yty - gs.xty[0] * gs.xty[0]) {}

  double score(std::size_t c) const {
    linalg::Vector w;
    double s = 0.0, zd = 0.0;
    if (!substitute(c, w, s, zd)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    double rss = rss_ - zd * zd;
    if (rss < 0.0) rss = 0.0;
    const double n = static_cast<double>(gs_.n_rows);
    const double k = static_cast<double>(model_.size());
    if (gs_.tss <= 0.0) return 1.0;
    const double r2 = 1.0 - rss / gs_.tss;
    return 1.0 - (1.0 - r2) * (n - 1.0) / (n - k - 1.0);
  }

  void accept(std::size_t c) {
    linalg::Vector w;
    double s = 0.0, zd = 0.0;
    ASSERT_TRUE(substitute(c, w, s, zd));
    w.push_back(std::sqrt(s));
    lrows_.push_back(std::move(w));
    z_.push_back(zd);
    rss_ -= zd * zd;
    if (rss_ < 0.0) rss_ = 0.0;
    model_.push_back(c + 1);
  }

 private:
  bool substitute(std::size_t c, linalg::Vector& w, double& s,
                  double& zd) const {
    const std::size_t d = c + 1, k = model_.size();
    if (gs_.col_scale[d] <= 0.0) return false;
    linalg::Vector gram_d(gs_.n_candidates + 1);
    gs_.column(d, gram_d.data());
    w.assign(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      const double acc =
          gram_d[model_[i]] - simd::dot(lrows_[i].data(), w.data(), i);
      w[i] = acc / lrows_[i][i];
    }
    s = 1.0 - simd::dot(w.data(), w.data(), k);
    const double wz = simd::dot(w.data(), z_.data(), k);
    if (s <= 1e-24) return false;
    zd = (gs_.xty[d] - wz) / std::sqrt(s);
    return true;
  }

  const linalg::GramSystem& gs_;
  std::vector<std::size_t> model_{0};
  std::vector<linalg::Vector> lrows_{{1.0}};
  linalg::Vector z_;
  double rss_;
};

TEST(GramScorer, EveryScoreMatchesAFreshSubstitution) {
  // Candidate 3 is exactly twice candidate 0, candidate 5 is all zero and
  // candidate 7 is a nonzero constant, exactly collinear with the
  // intercept.
  gppm::Rng rng(91);
  const std::size_t n = 64, p = 12, cap = 9;
  linalg::Matrix x(n, p);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) x(i, j) = rng.normal();
    x(i, 3) = 2.0 * x(i, 0);
    x(i, 5) = 0.0;
    x(i, 7) = 3.0;
    y[i] = 2.0 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2) + 0.25 * x(i, 9) +
           rng.normal(0.0, 0.5);
  }
  const linalg::GramSystem gs = linalg::build_gram_system(x, y);
  GramScorer scorer(gs, cap);
  FreshScorer fresh(gs);
  std::vector<bool> used(p, false);
  std::vector<std::size_t> accepted;
  std::vector<std::size_t> nan_rounds(p, 0);
  for (std::size_t step = 0; scorer.terms() <= cap; ++step) {
    scorer.fill_columns();
    // One round leaves the odd candidates out; they catch up by two
    // entries in the next.
    const bool evens_only = step == 1;
    std::size_t best = p;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < p; ++c) {
      if (used[c] || (evens_only && c % 2 == 1)) continue;
      const double kept = scorer.score(c);
      EXPECT_EQ(bits(kept), bits(fresh.score(c)))
          << "step " << step << " candidate " << c;
      if (std::isnan(kept)) {
        ++nan_rounds[c];
      } else if (kept > best_score) {
        best_score = kept;
        best = c;
      }
    }
    ASSERT_LT(best, p) << "step " << step;
    scorer.accept(best);
    fresh.accept(best);
    used[best] = true;
    accepted.push_back(best);
  }
  ASSERT_EQ(accepted.size(), cap);
  EXPECT_EQ(accepted[0], 0u);
  // The odd candidates sit out one of the cap rounds.  Candidates 5 and 7
  // score NaN in every other one, candidate 3 in every one after candidate
  // 0 joined in the first.
  EXPECT_EQ(nan_rounds[5], cap - 1);
  EXPECT_EQ(nan_rounds[7], cap - 1);
  EXPECT_EQ(nan_rounds[3], cap - 2);
}

TEST(GramScorer, RefusesWhatWasNotScored) {
  gppm::Rng rng(5);
  linalg::Matrix x(20, 3);
  linalg::Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal();
    y[i] = x(i, 1) + rng.normal(0.0, 0.1);
  }
  const linalg::GramSystem gs = linalg::build_gram_system(x, y);
  GramScorer scorer(gs, 2);
  scorer.fill_columns();
  EXPECT_THROW(scorer.accept(1), gppm::Error);  // not scored this round
  EXPECT_FALSE(std::isnan(scorer.score(1)));
  scorer.accept(1);
  EXPECT_THROW(scorer.score(0), gppm::Error);  // column of term 1 missing
  scorer.fill_columns();
  EXPECT_FALSE(std::isnan(scorer.score(0)));
  scorer.accept(0);
  EXPECT_THROW(scorer.fill_columns(), gppm::Error);  // past the cap
}

}  // namespace
}  // namespace gppm::stats
