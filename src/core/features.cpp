#include "core/features.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace gppm::core {

std::string to_string(TargetKind t) {
  return t == TargetKind::Power ? "power" : "exectime";
}

std::string to_string(FeatureScaling s) {
  return s == FeatureScaling::FrequencyOnly ? "f" : "V^2*f";
}

double feature_value(const profiler::CounterReading& reading,
                     sim::FrequencyPair pair, const sim::DeviceSpec& spec,
                     TargetKind target, FeatureScaling scaling) {
  const bool is_core = reading.klass == profiler::EventClass::Core;
  const sim::ClockDomainSpec& domain =
      is_core ? spec.core_clock : spec.mem_clock;
  const sim::ClockLevel level = is_core ? pair.core : pair.mem;
  const double freq_ghz = domain.at(level).frequency.as_ghz();
  if (target == TargetKind::Power) {
    // Eq. 1: per-second event rate x frequency — optionally x V^2 (the
    // voltage-aware extension; see FeatureScaling).
    const double vsq = scaling == FeatureScaling::VoltageSquaredFrequency
                           ? domain.voltage_sq_ratio(level)
                           : 1.0;
    return reading.per_second * freq_ghz * vsq;
  }
  // Eq. 2: event total / frequency.  Voltage does not change latency.
  return reading.total / freq_ghz;
}

bool is_mix_feature(const std::string& name) {
  return name.rfind(kMixFeaturePrefix, 0) == 0;
}

profiler::CounterReading baseline_reading(profiler::EventClass klass) {
  profiler::CounterReading r;
  r.name = klass == profiler::EventClass::Core ? kBaselineCoreFeature
                                               : kBaselineMemFeature;
  r.klass = klass;
  r.total = 1.0;
  r.per_second = 1.0;
  return r;
}

RegressionTable build_table(const Dataset& dataset, TargetKind target,
                            const sim::FrequencyPair* pair_filter,
                            FeatureScaling scaling,
                            bool include_baseline_terms) {
  obs::ObsSpan span("core.build_table");
  GPPM_CHECK(!dataset.samples.empty(), "empty dataset");
  const sim::DeviceSpec& spec = sim::device_spec(dataset.model);
  const std::size_t n_counters = dataset.samples.front().counters.counters.size();
  GPPM_CHECK(n_counters > 0, "sample without counters");
  const std::size_t n_features =
      n_counters + (include_baseline_terms ? 2 : 0);

  // Count rows first.
  std::size_t n_rows = 0;
  for (const Sample& s : dataset.samples) {
    for (const Measurement& m : s.runs) {
      if (pair_filter && !(m.pair == *pair_filter)) continue;
      ++n_rows;
      (void)m;
    }
  }
  GPPM_CHECK(n_rows > 0, "no rows after pair filter");

  RegressionTable table;
  table.features = linalg::Matrix(n_rows, n_features);
  table.target.resize(n_rows);
  table.rows.reserve(n_rows);
  table.feature_names.reserve(n_features);
  for (const profiler::CounterReading& r :
       dataset.samples.front().counters.counters) {
    table.feature_names.push_back(r.name);
  }
  if (include_baseline_terms) {
    table.feature_names.push_back(kBaselineCoreFeature);
    table.feature_names.push_back(kBaselineMemFeature);
  }

  // Each row is written through one row pointer, with the pair's domain
  // frequencies (and V^2 ratios) looked up once per row rather than once
  // per cell.  Every cell keeps feature_value's expression and evaluation
  // order — (per_second * f) * v for power, total / f for time, v = 1 in
  // the frequency-only form — so the table is bit for bit the per-cell one.
  const bool power = target == TargetKind::Power;
  const bool v2f = scaling == FeatureScaling::VoltageSquaredFrequency;
  std::size_t row = 0;
  for (std::size_t si = 0; si < dataset.samples.size(); ++si) {
    const Sample& s = dataset.samples[si];
    GPPM_CHECK(s.counters.counters.size() == n_counters,
               "inconsistent counter count across samples");
    const profiler::CounterReading* readings = s.counters.counters.data();
    for (const Measurement& m : s.runs) {
      if (pair_filter && !(m.pair == *pair_filter)) continue;
      // Index 0: core domain, 1: memory domain.
      const double f[2] = {spec.core_clock.at(m.pair.core).frequency.as_ghz(),
                           spec.mem_clock.at(m.pair.mem).frequency.as_ghz()};
      const double v[2] = {
          v2f ? spec.core_clock.voltage_sq_ratio(m.pair.core) : 1.0,
          v2f ? spec.mem_clock.voltage_sq_ratio(m.pair.mem) : 1.0};
      double* out = table.features.row_ptr(row);
      if (power) {
        for (std::size_t c = 0; c < n_counters; ++c) {
          const std::size_t d =
              readings[c].klass == profiler::EventClass::Core ? 0 : 1;
          out[c] = readings[c].per_second * f[d] * v[d];
        }
      } else {
        for (std::size_t c = 0; c < n_counters; ++c) {
          const std::size_t d =
              readings[c].klass == profiler::EventClass::Core ? 0 : 1;
          out[c] = readings[c].total / f[d];
        }
      }
      if (include_baseline_terms) {
        // The baseline pseudo-readings have unit rate and total.
        out[n_counters] = power ? 1.0 * f[0] * v[0] : 1.0 / f[0];
        out[n_counters + 1] = power ? 1.0 * f[1] * v[1] : 1.0 / f[1];
      }
      table.target[row] =
          power ? m.avg_power.as_watts() : m.exec_time.as_seconds();
      table.rows.push_back({si, m.pair});
      ++row;
    }
  }
  GPPM_ASSERT(row == n_rows);
  return table;
}

}  // namespace gppm::core
