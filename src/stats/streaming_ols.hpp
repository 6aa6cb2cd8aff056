// Sliding-window ordinary least squares on an incrementally-maintained
// Cholesky factor — the refit engine behind the online DVFS governor.
//
// The offline pipeline fits once over the whole corpus; a governor watching
// a live counter stream must *keep* fitting as the workload mix drifts,
// without paying a full refactorization per observation.  This class keeps
// the normal equations G = X^T X and b = X^T y in factored form:
//
//   * seed rows (the offline corpus) enter the prior Gram permanently —
//     they condition the problem and anchor the fit when the window is
//     short;
//   * each streamed observation is a rank-1 cholesky_update (O(k^2));
//   * once the window is full, the oldest streamed row leaves by
//     cholesky_downdate (O(k^2)); if rounding has eaten the factor's
//     positive-definiteness the engine rebuilds from the stored prior Gram
//     plus the live window (O(k^3), counted in rebuilds());
//   * coefficients() is two triangular solves against the current factor.
//
// Dimensions here are tiny (intercept + at most 10 selected variables), so
// every operation is microseconds; the point is the *contract* — bounded
// state, deterministic results, and a window that actually forgets.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "linalg/matrix.hpp"

namespace gppm::stats {

struct StreamingOlsOptions {
  /// Streamed observations retained; the oldest is evicted beyond this.
  /// Seed rows are permanent and do not count against the window.
  std::size_t window = 256;
};

/// Incremental least squares over fixed-dimension rows (the caller supplies
/// the intercept as an explicit column if one is wanted).
class StreamingOls {
 public:
  explicit StreamingOls(std::size_t dim, StreamingOlsOptions options = {});

  /// Fold a block of permanent prior rows into the Gram matrix (the
  /// offline corpus).  May be called repeatedly; rebuilds the factor.
  void seed(const linalg::Matrix& x, const linalg::Vector& y);

  /// Stream one observation into the window.  Evicts the oldest streamed
  /// row once the window is full.
  void observe(const linalg::Vector& x, double y);

  /// Current solution of (G_prior + G_window + lambda I) beta = b, with a
  /// fixed ridge prior lambda = 1e-6.
  linalg::Vector coefficients() const;

  std::size_t dim() const { return dim_; }
  std::size_t window_size() const { return window_.size(); }
  std::uint64_t observed() const { return observed_; }
  std::uint64_t evicted() const { return evicted_; }
  /// Full refactorizations forced by seed() calls or downdate breakdown.
  int rebuilds() const { return rebuilds_; }

 private:
  void rebuild();

  std::size_t dim_;
  StreamingOlsOptions options_;
  linalg::Matrix factor_;      ///< Cholesky L of prior + window Gram
  linalg::Vector rhs_;         ///< X^T y over prior + window
  linalg::Matrix prior_gram_;  ///< lambda I + seeded rows (for rebuilds)
  linalg::Vector prior_rhs_;
  std::deque<std::pair<linalg::Vector, double>> window_;
  std::uint64_t observed_ = 0;
  std::uint64_t evicted_ = 0;
  int rebuilds_ = 0;
};

}  // namespace gppm::stats
