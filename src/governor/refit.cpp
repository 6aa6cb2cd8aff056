#include "governor/refit.hpp"

#include <utility>

#include "common/error.hpp"

namespace gppm::governor {

namespace {

stats::StreamingOlsOptions to_ols_options(const RefitOptions& options) {
  stats::StreamingOlsOptions ols;
  ols.window = options.window;
  return ols;
}

}  // namespace

ModelRefitter::ModelRefitter(const core::Dataset& seed_corpus,
                             core::UnifiedModel power, core::UnifiedModel perf,
                             RefitOptions options)
    : power_(std::move(power)),
      perf_(std::move(perf)),
      power_ols_(power_.variables().size() + 1, to_ols_options(options)),
      perf_ols_(perf_.variables().size() + 1, to_ols_options(options)) {
  GPPM_CHECK(power_.target() == core::TargetKind::Power,
             "refitter's first model must target power");
  GPPM_CHECK(perf_.target() == core::TargetKind::ExecTime,
             "refitter's second model must target exectime");
  GPPM_CHECK(power_.gpu() == perf_.gpu(), "refitter models for different boards");
  GPPM_CHECK(seed_corpus.model == power_.gpu(),
             "seed corpus board != model board");

  // Replay the offline training rows into the permanent prior: one row per
  // (sample, measured pair), built through the same feature path the
  // models predict with.
  const std::size_t rows = seed_corpus.row_count();
  linalg::Matrix power_x(rows, power_ols_.dim());
  linalg::Matrix perf_x(rows, perf_ols_.dim());
  linalg::Vector power_y(rows), perf_y(rows);
  std::size_t r = 0;
  for (const core::Sample& s : seed_corpus.samples) {
    for (const core::Measurement& m : s.runs) {
      const linalg::Vector pr = feature_row(power_, s.counters, m.pair);
      const linalg::Vector tr = feature_row(perf_, s.counters, m.pair);
      for (std::size_t c = 0; c < pr.size(); ++c) power_x(r, c) = pr[c];
      for (std::size_t c = 0; c < tr.size(); ++c) perf_x(r, c) = tr[c];
      power_y[r] = m.avg_power.as_watts();
      perf_y[r] = m.exec_time.as_seconds();
      ++r;
    }
  }
  GPPM_ASSERT(r == rows);
  power_ols_.seed(power_x, power_y);
  perf_ols_.seed(perf_x, perf_y);
  seed_rebuilds_ = power_ols_.rebuilds() + perf_ols_.rebuilds();
}

linalg::Vector ModelRefitter::feature_row(
    const core::UnifiedModel& model, const profiler::ProfileResult& counters,
    sim::FrequencyPair pair) {
  linalg::Vector row(model.variables().size() + 1);
  row[0] = 1.0;  // intercept column
  for (std::size_t i = 0; i < model.variables().size(); ++i) {
    row[i + 1] = model.feature(i, counters, pair);
  }
  return row;
}

void ModelRefitter::observe(const profiler::ProfileResult& counters,
                            sim::FrequencyPair pair, Power measured_power,
                            Duration measured_time) {
  power_ols_.observe(feature_row(power_, counters, pair),
                     measured_power.as_watts());
  perf_ols_.observe(feature_row(perf_, counters, pair),
                    measured_time.as_seconds());
}

core::UnifiedModel ModelRefitter::with_coefficients(
    const core::UnifiedModel& model, const linalg::Vector& beta) {
  core::UnifiedModel::Parts parts = model.parts();
  GPPM_ASSERT(beta.size() == parts.variables.size() + 1);
  parts.intercept = beta[0];
  for (std::size_t i = 0; i < parts.variables.size(); ++i) {
    parts.variables[i].coefficient = beta[i + 1];
  }
  return core::UnifiedModel::from_parts(std::move(parts));
}

void ModelRefitter::refit() {
  power_ = with_coefficients(power_, power_ols_.coefficients());
  perf_ = with_coefficients(perf_, perf_ols_.coefficients());
  ++refits_;
}

int ModelRefitter::rebuild_count() const {
  return power_ols_.rebuilds() + perf_ols_.rebuilds() - seed_rebuilds_;
}

}  // namespace gppm::governor
