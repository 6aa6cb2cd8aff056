#include "core/runner.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/faulty_meter.hpp"
#include "obs/obs.hpp"

namespace gppm::core {

namespace {

// Quality-path instruments for the checked measurement pipeline; cached so
// the fault-free path pays one branch per record.
struct SweepInstruments {
  obs::Counter& attempts;
  obs::Counter& retries;
  obs::Counter& invalid_runs;
  obs::Counter& samples_rejected;
  obs::Counter& samples_imputed;
  obs::Counter& cells_measured;
  obs::Counter& cells_missing;
  obs::Histogram& backoff_ms;

  static SweepInstruments& instance() {
    static SweepInstruments* in = new SweepInstruments{
        obs::Registry::instance().counter("sweep.attempts"),
        obs::Registry::instance().counter("sweep.retries"),
        obs::Registry::instance().counter("sweep.invalid_runs"),
        obs::Registry::instance().counter("sweep.samples_rejected"),
        obs::Registry::instance().counter("sweep.samples_imputed"),
        obs::Registry::instance().counter("sweep.cells_measured"),
        obs::Registry::instance().counter("sweep.cells_missing"),
        obs::Registry::instance().histogram("sweep.backoff_ms"),
    };
    return *in;
  }
};

}  // namespace

MeasurementRunner::MeasurementRunner(sim::GpuModel model, RunnerOptions options)
    : gpu_(model, options.seed),
      options_(options),
      meter_(options.meter, options.seed ^ 0x5741313630300ull /* "WT1600" */) {
  GPPM_CHECK(options_.min_run_length > Duration::seconds(0.0),
             "min_run_length must be positive");
}

std::vector<meter::TimelineSegment> MeasurementRunner::wall_timeline(
    const sim::RunExecution& exec) const {
  std::vector<meter::TimelineSegment> out;
  out.reserve(exec.timeline.size());
  for (const sim::PowerSegment& seg : exec.timeline) {
    // During GPU kernels the CPU busy-waits on the sync; during host phases
    // it computes.  PSU conversion loss sits on top of the DC total.
    const Power host = seg.kind == sim::SegmentKind::GpuKernel
                           ? options_.host.gpu_wait
                           : options_.host.host_active;
    out.push_back({seg.duration,
                   sim::wall_power(options_.host, host + seg.gpu_power)});
  }
  return out;
}

double MeasurementRunner::repetition_factor(
    const workload::BenchmarkDef& benchmark, std::size_t size_index) {
  const std::string key = benchmark.name + "#" + std::to_string(size_index);
  auto it = repetition_cache_.find(key);
  if (it != repetition_cache_.end()) return it->second;

  // Decide at the default pair: how many times must the kernels repeat so
  // the run reaches min_run_length?  (The paper modifies the source of
  // sub-500 ms programs to loop their computing kernel.)
  const sim::FrequencyPair saved = gpu_.frequency_pair();
  gpu_.set_frequency_pair(sim::kDefaultPair);
  const sim::RunExecution exec = gpu_.run(benchmark.profile(size_index));
  gpu_.set_frequency_pair(saved);

  double factor = 1.0;
  const double t = exec.total_time.as_seconds();
  const double t_min = options_.min_run_length.as_seconds();
  if (t < t_min) factor = std::ceil(t_min / std::max(t, 1e-6));
  repetition_cache_[key] = factor;
  return factor;
}

sim::RunProfile MeasurementRunner::prepared_profile(
    const workload::BenchmarkDef& benchmark, std::size_t size_index) {
  sim::RunProfile profile = benchmark.profile(size_index);
  const double factor = repetition_factor(benchmark, size_index);
  if (factor > 1.0) {
    for (sim::KernelProfile& k : profile.kernels) {
      k.launches = static_cast<std::uint32_t>(
          std::max(1.0, std::round(k.launches * factor)));
    }
  }
  return profile;
}

std::uint64_t MeasurementRunner::run_identity(const sim::RunProfile& profile,
                                              sim::FrequencyPair pair) const {
  std::uint64_t key = fnv1a(profile.benchmark_name) ^
                      (fnv1a(sim::to_string(pair)) << 1) ^
                      (static_cast<std::uint64_t>(gpu_.spec().model) << 48);
  for (const sim::KernelProfile& k : profile.kernels) key ^= fnv1a(k.name);
  return key;
}

Measurement MeasurementRunner::summarize(const sim::RunProfile& profile,
                                         sim::FrequencyPair pair,
                                         const sim::RunExecution& exec,
                                         const meter::Measurement& m) const {
  // Host timer: accurate to a fraction of a percent, keyed on run identity
  // so repeated measurements are reproducible.
  Rng rng = Rng(options_.seed).fork(run_identity(profile, pair));
  const double timer_noise = 1.0 + rng.normal(0.0, 0.003);

  Measurement out;
  out.pair = pair;
  out.exec_time = Duration::seconds(exec.total_time.as_seconds() * timer_noise);
  out.avg_power = m.average_power;
  // Report energy over the full run: meter energy covers whole sampling
  // windows only; extend the average power over the tail remainder.
  out.energy = m.average_power * out.exec_time;
  return out;
}

Measurement MeasurementRunner::measure(const workload::BenchmarkDef& benchmark,
                                       std::size_t size_index,
                                       sim::FrequencyPair pair) {
  return measure_profile(prepared_profile(benchmark, size_index), pair);
}

Measurement MeasurementRunner::measure_profile(const sim::RunProfile& profile,
                                               sim::FrequencyPair pair) {
  // Span only: the fault-free pipeline stays byte-identical (no counters
  // move that the checked path does not already own).
  obs::ObsSpan span("sweep.measure");
  gpu_.set_frequency_pair(pair);
  const sim::RunExecution exec = gpu_.run(profile);
  const meter::Measurement m = meter_.measure(wall_timeline(exec));
  return summarize(profile, pair, exec, m);
}

MeasuredCell MeasurementRunner::measure_checked(
    const workload::BenchmarkDef& benchmark, std::size_t size_index,
    sim::FrequencyPair pair) {
  return measure_profile_checked(prepared_profile(benchmark, size_index), pair);
}

MeasuredCell MeasurementRunner::measure_profile_checked(
    const sim::RunProfile& profile, sim::FrequencyPair pair) {
  obs::ObsSpan span("sweep.measure_checked");
  SweepInstruments& ins = SweepInstruments::instance();
  MeasuredCell cell;
  QualityReport& q = cell.quality;
  const std::uint64_t key = run_identity(profile, pair);
  const RetryPolicy& policy = options_.retry;
  Rng backoff_rng = Rng(options_.seed).fork(key ^ fnv1a("retry.jitter"));
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;

  // Charge one backoff delay against the budget; false ends the cell.
  const auto charge_backoff = [&](int attempt) {
    const Duration delay = backoff_delay(policy, attempt, backoff_rng);
    if (q.backoff + delay > policy.retry_budget) {
      q.failure = "retry budget exhausted";
      return false;
    }
    q.backoff += delay;
    return true;
  };

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++q.attempts;
    ins.attempts.add();
    const bool last = attempt + 1 == max_attempts;

    // P-state transition: the paper's patch + reboot step, which a real
    // board occasionally refuses.  The previous operating point survives
    // a refusal, exactly like dvfs::Controller's transactional set_pair.
    if (options_.injector != nullptr &&
        options_.injector->should_fire(fault::kSiteDvfsSetPair)) {
      ++q.transient_faults;
      ins.retries.add();
      q.failure = "P-state transition to " + sim::to_string(pair) + " failed";
      if (last || !charge_backoff(attempt)) break;
      continue;
    }
    gpu_.set_frequency_pair(pair);
    const sim::RunExecution exec = gpu_.run(profile);

    // The meter stream is keyed on the run identity, not on call order:
    // every attempt (and the fault-free pipeline) sees the same underlying
    // samples, so what the faults change is exactly what the faults broke.
    fault::FaultyMeter fmeter(options_.meter,
                              options_.seed ^ 0x5741313630300ull ^ key,
                              options_.injector);
    meter::Measurement m;
    try {
      m = fmeter.measure(wall_timeline(exec));
    } catch (const TransientError& e) {
      ++q.transient_faults;
      ins.retries.add();
      q.failure = e.what();
      if (last || !charge_backoff(attempt)) break;
      continue;
    }

    ValidationOptions vopt = options_.validation;
    if (!(vopt.sampling_period > Duration::seconds(0.0))) {
      vopt.sampling_period = options_.meter.sampling_period;
    }
    const ValidatedRun v = validate_run(m, vopt);
    if (!v.ok) {
      // An invalid run (thinned below the minimum, or spike-ridden) is
      // re-measured immediately; no instrument backoff applies.
      ins.invalid_runs.add();
      q.failure = "invalid run: " + v.reason;
      continue;
    }

    q.samples_delivered = m.samples.size();
    q.samples_rejected = v.rejected;
    q.samples_imputed = v.imputed;
    ins.samples_rejected.add(v.rejected);
    ins.samples_imputed.add(v.imputed);
    q.valid = true;
    q.failure.clear();
    cell.measurement = summarize(profile, pair, exec, v.cleaned);
    break;
  }

  if (!q.valid && q.failure.empty()) q.failure = "attempts exhausted";
  (q.valid ? ins.cells_measured : ins.cells_missing).add();
  if (obs::enabled() && q.backoff > Duration::seconds(0.0)) {
    ins.backoff_ms.record(q.backoff.as_milliseconds());
  }
  return cell;
}

}  // namespace gppm::core
