#include "serve/server.hpp"

#include <algorithm>
#include <fstream>

#include "common/error.hpp"
#include "common/str.hpp"
#include "dvfs/combos.hpp"
#include "obs/obs.hpp"

namespace gppm::serve {

namespace {

std::size_t gpu_slot(sim::GpuModel gpu) {
  for (std::size_t i = 0; i < sim::kAllGpus.size(); ++i) {
    if (sim::kAllGpus[i] == gpu) return i;
  }
  throw Error("unknown GPU model");
}

std::size_t policy_slot(core::GovernorPolicy policy) {
  return static_cast<std::size_t>(policy);
}

/// Batch-grouping key: jobs with equal keys share a registry entry and an
/// endpoint handler.  The tenant is part of the key — tenants may resolve
/// to different model families, so a group must never span tenants.
std::uint64_t group_key(const Request& r) {
  const std::uint64_t endpoint =
      static_cast<std::uint64_t>(gpu_slot(r.gpu)) * kRequestKindCount +
      static_cast<std::uint64_t>(r.kind);
  return (static_cast<std::uint64_t>(r.tenant) << 8) | endpoint;
}

constexpr std::size_t kCacheShards = 16;

}  // namespace

PredictionServer::PredictionServer(ServerOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_capacity, kCacheShards),
      scope_([this](obs::MetricsSnapshot& rows) {
        metrics_.add_rows(metrics(), rows);
      }) {
  GPPM_CHECK(options_.worker_threads > 0, "server needs at least one worker");
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_batch > kMaxTrackedBatch) {
    options_.max_batch = kMaxTrackedBatch;
  }
  running_.store(true, std::memory_order_release);
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PredictionServer::~PredictionServer() { shutdown(); }

sim::GpuModel PredictionServer::load_models(core::UnifiedModel power_model,
                                            core::UnifiedModel perf_model) {
  return load_tenant_models(0, std::move(power_model), std::move(perf_model));
}

sim::GpuModel PredictionServer::load_tenant_models(
    std::uint32_t tenant, core::UnifiedModel power_model,
    core::UnifiedModel perf_model) {
  GPPM_CHECK(power_model.target() == core::TargetKind::Power,
             "first model must target power");
  GPPM_CHECK(perf_model.target() == core::TargetKind::ExecTime,
             "second model must target exectime");
  GPPM_CHECK(power_model.gpu() == perf_model.gpu(),
             "models fitted for different boards");

  auto entry = std::make_shared<ModelEntry>();
  entry->tenant = tenant;
  entry->power_fp = core::model_fingerprint(power_model);
  entry->perf_fp = core::model_fingerprint(perf_model);
  entry->pairs = dvfs::configurable_pairs(power_model.gpu());
  for (core::GovernorPolicy policy :
       {core::GovernorPolicy::MinimumEnergy, core::GovernorPolicy::MinimumEdp,
        core::GovernorPolicy::PowerCap}) {
    core::GovernorOptions gopt = options_.governor;
    gopt.policy = policy;
    entry->governors[policy_slot(policy)] = std::make_unique<GovernorSlot>(
        core::DvfsGovernor(power_model, perf_model, gopt));
  }
  entry->power = std::move(power_model);
  entry->perf = std::move(perf_model);

  const sim::GpuModel gpu = entry->power.gpu();
  const std::size_t slot = gpu_slot(gpu);
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  if (tenant == 0) {
    registry_[slot] = std::move(entry);
  } else {
    tenant_registry_[static_cast<std::uint64_t>(tenant) *
                         sim::kAllGpus.size() +
                     slot] = std::move(entry);
  }
  return gpu;
}

bool PredictionServer::has_tenant_models(std::uint32_t tenant,
                                         sim::GpuModel gpu) const {
  if (tenant == 0) return has_models(gpu);
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  return tenant_registry_.count(static_cast<std::uint64_t>(tenant) *
                                    sim::kAllGpus.size() +
                                gpu_slot(gpu)) > 0;
}

void PredictionServer::set_tenant_quota(std::uint32_t tenant,
                                        std::size_t quota) {
  GPPM_CHECK(tenant != 0, "tenant 0 (the shared default) cannot be limited");
  std::lock_guard<std::mutex> lock(quota_mutex_);
  if (quota == 0) {
    quotas_.erase(tenant);
    return;
  }
  // A fixed quota, not an adaptive one: pin the AIMD limits together so
  // the controller degenerates to a plain concurrency cap.  Isolation
  // wants a contract ("tenant 7 gets 16 slots"), not a probe.
  AdmissionOptions opt;
  opt.initial_limit = static_cast<double>(quota);
  opt.min_limit = static_cast<double>(quota);
  opt.max_limit = static_cast<double>(quota);
  quotas_[tenant] = std::make_shared<AdmissionController>(opt);
}

std::shared_ptr<AdmissionController> PredictionServer::quota_for(
    std::uint32_t tenant) const {
  if (tenant == 0) return nullptr;
  std::lock_guard<std::mutex> lock(quota_mutex_);
  auto it = quotas_.find(tenant);
  return it == quotas_.end() ? nullptr : it->second;
}

sim::GpuModel PredictionServer::load_model_files(const std::string& power_path,
                                                 const std::string& perf_path) {
  std::ifstream power_in(power_path);
  GPPM_CHECK(static_cast<bool>(power_in), "cannot open " + power_path);
  std::ifstream perf_in(perf_path);
  GPPM_CHECK(static_cast<bool>(perf_in), "cannot open " + perf_path);
  return load_models(core::deserialize_model(power_in),
                     core::deserialize_model(perf_in));
}

bool PredictionServer::has_models(sim::GpuModel gpu) const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  return registry_[gpu_slot(gpu)] != nullptr;
}

std::vector<PredictionServer::LoadedModel> PredictionServer::loaded_models()
    const {
  std::vector<LoadedModel> loaded;
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  for (std::size_t i = 0; i < sim::kAllGpus.size(); ++i) {
    if (registry_[i] == nullptr) continue;
    loaded.push_back(
        {sim::kAllGpus[i], registry_[i]->power_fp, registry_[i]->perf_fp});
  }
  return loaded;
}

std::shared_ptr<PredictionServer::ModelEntry> PredictionServer::entry_for(
    std::uint32_t tenant, sim::GpuModel gpu) const {
  const std::size_t slot = gpu_slot(gpu);
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  if (tenant != 0) {
    auto it = tenant_registry_.find(
        static_cast<std::uint64_t>(tenant) * sim::kAllGpus.size() + slot);
    if (it != tenant_registry_.end()) return it->second;
  }
  return registry_[slot];
}

bool PredictionServer::acquire_tenant_quota(Job& job) {
  std::shared_ptr<AdmissionController> quota = quota_for(job.request.tenant);
  if (quota == nullptr) return true;
  if (quota->try_acquire(job.request.deadline)) {
    job.quota = std::move(quota);
    return true;
  }
  metrics_.record_shed();
  metrics_.record_tenant_shed(job.request.tenant);
  Response response;
  response.kind = job.request.kind;
  response.status = ResponseStatus::Overloaded;
  response.error = "tenant " + std::to_string(job.request.tenant) +
                   " quota saturated";
  job.promise.set_value(std::move(response));
  return false;
}

std::future<Response> PredictionServer::submit(Request request) {
  Job job;
  job.request = std::move(request);
  job.enqueued = std::chrono::steady_clock::now();
  std::future<Response> future = job.promise.get_future();
  const std::uint32_t tenant = job.request.tenant;
  if (!acquire_tenant_quota(job)) return future;
  if (options_.load_shedding) {
    if (queue_.try_push(std::move(job))) {
      metrics_.record_tenant_accepted(tenant);
      return future;
    }
    // try_push left the job intact; a closed queue is still a hard
    // rejection, a merely full one is answered Overloaded right here.
    if (queue_.closed()) {
      metrics_.record_rejected();
      if (job.quota) job.quota->release_error();
      throw Error("prediction server is shut down");
    }
    metrics_.record_shed();
    Response response;
    response.status = ResponseStatus::Overloaded;
    response.error = "admission queue saturated (" +
                     std::to_string(options_.queue_capacity) + " queued)";
    finish(job, std::move(response));
    return future;
  }
  if (!queue_.push(std::move(job))) {
    metrics_.record_rejected();
    if (job.quota) job.quota->release_error();
    throw Error("prediction server is shut down");
  }
  metrics_.record_tenant_accepted(tenant);
  return future;
}

std::optional<std::future<Response>> PredictionServer::try_submit(
    Request request) {
  Job job;
  job.request = std::move(request);
  job.enqueued = std::chrono::steady_clock::now();
  std::future<Response> future = job.promise.get_future();
  const std::uint32_t tenant = job.request.tenant;
  if (!acquire_tenant_quota(job)) return future;
  if (!queue_.try_push(std::move(job))) {
    metrics_.record_rejected();
    if (job.quota) job.quota->release_error();
    return std::nullopt;
  }
  metrics_.record_tenant_accepted(tenant);
  return future;
}

void PredictionServer::shutdown() {
  // Flag first, close second: a submit racing with shutdown either gets
  // into the queue before close() (and is drained) or fails its push.
  // The joins run under a mutex so concurrent shutdown() calls serialize;
  // every caller returns only once the workers are gone, and repeat calls
  // find nothing joinable.  (The previous std::call_once version made a
  // second caller return while the first was still joining.)
  running_.store(false, std::memory_order_release);
  queue_.close();
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ServerMetrics PredictionServer::metrics() const {
  ServerMetrics m = metrics_.snapshot();
  m.queue_high_water = queue_.high_water_mark();
  m.cache = cache_.stats();
  return m;
}

void PredictionServer::worker_loop() {
  while (true) {
    std::vector<Job> batch = queue_.pop_batch(options_.max_batch);
    if (batch.empty()) break;  // closed and fully drained
    obs::ObsSpan span("serve.batch");
    metrics_.record_batch(batch.size());

    // Micro-batch grouping: bring jobs sharing (gpu, kind) together so the
    // registry lookup and per-board state amortize across the group.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Job& a, const Job& b) {
                       return group_key(a.request) < group_key(b.request);
                     });
    std::size_t begin = 0;
    while (begin < batch.size()) {
      std::size_t end = begin + 1;
      while (end < batch.size() && group_key(batch[end].request) ==
                                       group_key(batch[begin].request)) {
        ++end;
      }
      const std::shared_ptr<ModelEntry> entry = entry_for(
          batch[begin].request.tenant, batch[begin].request.gpu);
      if (entry == nullptr) {
        for (std::size_t i = begin; i < end; ++i) {
          if (expire_if_past_deadline(batch[i])) continue;
          metrics_.record_error_response();
          Response response;
          response.status = ResponseStatus::NoModels;
          response.error =
              "no models loaded for " + sim::to_string(batch[i].request.gpu);
          finish(batch[i], std::move(response));
        }
      } else {
        process_group(*entry, batch.data() + begin, end - begin);
      }
      begin = end;
    }
  }
}

void PredictionServer::finish(Job& job, Response response) {
  response.kind = job.request.kind;
  const auto now = std::chrono::steady_clock::now();
  response.latency = Duration::seconds(
      std::chrono::duration<double>(now - job.enqueued).count());
  if (job.quota) {
    // Steer the (degenerate, fixed-limit) controller honestly anyway: a
    // congestion answer must not read as success to its EWMA.
    switch (response.status) {
      case ResponseStatus::Ok:
        job.quota->release_success(response.latency);
        break;
      case ResponseStatus::Overloaded:
      case ResponseStatus::DeadlineExceeded:
        job.quota->release_congestion(response.latency);
        break;
      default:
        job.quota->release_error();
        break;
    }
    job.quota.reset();
  }
  job.promise.set_value(std::move(response));
}

bool PredictionServer::expire_if_past_deadline(Job& job) {
  if (!(job.request.deadline > Duration::seconds(0.0))) return false;
  const auto now = std::chrono::steady_clock::now();
  const double waited =
      std::chrono::duration<double>(now - job.enqueued).count();
  if (waited <= job.request.deadline.as_seconds()) return false;
  metrics_.record_deadline_expired();
  Response response;
  response.status = ResponseStatus::DeadlineExceeded;
  response.error = "queued " + format_double(waited * 1e3, 1) +
                   " ms past a " +
                   format_double(job.request.deadline.as_seconds() * 1e3, 1) +
                   " ms deadline";
  finish(job, std::move(response));
  return true;
}

void PredictionServer::process_group(ModelEntry& entry, Job* jobs,
                                     std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Job& job = jobs[i];
    if (expire_if_past_deadline(job)) continue;
    try {
      bool cache_hit = false;
      Response response = handle(entry, job.request, cache_hit);
      response.cache_hit = cache_hit;
      if (cache_hit) metrics_.record_tenant_cache_hit(job.request.tenant);
      const double latency = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - job.enqueued).count();
      metrics_.record_request(job.request.kind, latency);
      finish(job, std::move(response));
    } catch (const std::exception& e) {
      metrics_.record_error_response();
      Response response;
      response.status = ResponseStatus::InternalError;
      response.error = e.what();
      finish(job, std::move(response));
    }
  }
}

double PredictionServer::cached_predict(
    const core::UnifiedModel& model, std::uint64_t model_fp,
    std::uint64_t counters_fp, std::uint64_t family,
    const profiler::ProfileResult& counters, sim::FrequencyPair pair,
    bool& all_hits) {
  const PredictionKey key{model_fp, counters_fp, family, pair};
  double value = 0.0;
  if (cache_.lookup(key, value)) return value;
  all_hits = false;
  value = model.predict(counters, pair);
  cache_.insert(key, value);
  return value;
}

Response PredictionServer::handle(ModelEntry& entry, const Request& request,
                                  bool& cache_hit) {
  const std::uint64_t cfp = counters_fingerprint(request.counters);
  // Cache entries are stamped with the *serving* family, which is 0 when a
  // tenant falls back to the board default — fallback tenants then share
  // the default family's cache entries instead of duplicating them.
  const std::uint64_t fam = entry.tenant;
  bool all_hits = true;
  Response response;

  switch (request.kind) {
    case RequestKind::Predict: {
      response.pair = request.pair;
      response.power_watts = cached_predict(
          entry.power, entry.power_fp, cfp, fam, request.counters,
          request.pair, all_hits);
      response.time_seconds = cached_predict(
          entry.perf, entry.perf_fp, cfp, fam, request.counters, request.pair,
          all_hits);
      response.energy_joules = response.power_watts * response.time_seconds;
      break;
    }
    case RequestKind::Optimize: {
      // TABLE IV semantics: rank every configurable pair by predicted
      // energy, with core/optimizer's physical clamps so the ranking
      // matches predict_min_energy_pair exactly.
      double best_energy = 0.0;
      bool first = true;
      for (sim::FrequencyPair pair : entry.pairs) {
        const double power = std::max(
            1.0, cached_predict(entry.power, entry.power_fp, cfp, fam,
                                request.counters, pair, all_hits));
        const double time = std::max(
            1e-3, cached_predict(entry.perf, entry.perf_fp, cfp, fam,
                                 request.counters, pair, all_hits));
        const double energy = power * time;
        if (first || energy < best_energy) {
          first = false;
          best_energy = energy;
          response.pair = pair;
          response.power_watts = power;
          response.time_seconds = time;
          response.energy_joules = energy;
        }
      }
      GPPM_CHECK(!first, "no configurable pairs");
      break;
    }
    case RequestKind::Govern: {
      GovernorSlot& slot = *entry.governors[policy_slot(request.policy)];
      sim::FrequencyPair pick;
      {
        std::lock_guard<std::mutex> lock(slot.mutex);
        pick = slot.governor.decide(request.counters);
      }
      response.pair = pick;
      response.power_watts = std::max(
          1.0, cached_predict(entry.power, entry.power_fp, cfp, fam,
                              request.counters, pick, all_hits));
      response.time_seconds = std::max(
          1e-3, cached_predict(entry.perf, entry.perf_fp, cfp, fam,
                               request.counters, pick, all_hits));
      response.energy_joules = response.power_watts * response.time_seconds;
      break;
    }
  }
  cache_hit = all_hits;
  return response;
}

}  // namespace gppm::serve
