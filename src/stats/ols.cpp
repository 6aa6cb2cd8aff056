#include "stats/ols.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/lstsq.hpp"
#include "stats/descriptive.hpp"

namespace gppm::stats {

double OlsFit::predict(const linalg::Vector& features) const {
  GPPM_CHECK(features.size() == coefficients.size(),
             "feature size != coefficient count");
  return intercept + linalg::dot(features, coefficients);
}

OlsFit ols_fit(const linalg::Matrix& x, const linalg::Vector& y,
               bool fit_intercept) {
  GPPM_CHECK(x.rows() == y.size(), "X/y row mismatch");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  const std::size_t total_params = p + (fit_intercept ? 1 : 0);
  GPPM_CHECK(n > total_params, "not enough samples for the parameter count");

  // The design matrix, with an intercept column if requested, as
  // contiguous columns.
  std::vector<linalg::Vector> design;
  design.reserve(total_params);
  if (fit_intercept) design.emplace_back(n, 1.0);
  for (std::size_t c = 0; c < p; ++c) design.push_back(x.col(c));
  linalg::IncrementalLstsq solver(y);
  for (const linalg::Vector& col : design) solver.append(col.data());
  return ols_from_solution(solver.solve(), n, fit_intercept,
                           total_sum_of_squares(y, fit_intercept));
}

double total_sum_of_squares(const linalg::Vector& y, bool fit_intercept) {
  // R^2 against the mean model (or against zero when no intercept).
  double tss = 0.0;
  if (fit_intercept) {
    const double my = mean(y);
    for (double v : y) tss += (v - my) * (v - my);
  } else {
    for (double v : y) tss += v * v;
  }
  return tss;
}

OlsFit ols_from_solution(const linalg::LstsqResult& solution,
                         std::size_t n_samples, bool fit_intercept,
                         double tss) {
  const std::size_t total_params = solution.x.size();
  OlsFit fit;
  fit.n_samples = n_samples;
  fit.n_predictors = total_params - (fit_intercept ? 1 : 0);
  fit.full_rank = solution.full_rank;
  fit.residual_ss = solution.residual_ss;
  std::size_t j = 0;
  if (fit_intercept) fit.intercept = solution.x[j++];
  fit.coefficients.assign(solution.x.begin() + static_cast<std::ptrdiff_t>(j),
                          solution.x.end());

  if (tss <= 0.0) {
    fit.r_squared = 1.0;
    fit.adjusted_r_squared = 1.0;
    return fit;
  }
  const double n = static_cast<double>(n_samples);
  fit.r_squared = 1.0 - fit.residual_ss / tss;
  const double dof = n - static_cast<double>(total_params);
  fit.adjusted_r_squared = 1.0 - (1.0 - fit.r_squared) * (n - 1.0) / dof;
  return fit;
}

}  // namespace gppm::stats
