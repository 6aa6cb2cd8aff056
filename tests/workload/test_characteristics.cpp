// Suite-wide characterization properties: every benchmark on every board
// must behave physically, and the showcased intensity classes must hold on
// all architectures.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "gpusim/timing.hpp"
#include "workload/suite.hpp"

namespace gppm::workload {
namespace {

struct Cell {
  std::size_t bench;
  sim::GpuModel gpu;
};

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (std::size_t b = 0; b < benchmark_suite().size(); ++b) {
    for (sim::GpuModel m : sim::kAllGpus) cells.push_back({b, m});
  }
  return cells;
}

class EveryBenchmarkOnEveryBoard : public ::testing::TestWithParam<Cell> {
 protected:
  const BenchmarkDef& def() const { return benchmark_suite()[GetParam().bench]; }
  const sim::DeviceSpec& spec() const {
    return sim::device_spec(GetParam().gpu);
  }
};

TEST_P(EveryBenchmarkOnEveryBoard, MeasurementIsPhysical) {
  core::MeasurementRunner runner(GetParam().gpu);
  const core::Measurement m = runner.measure(def(), 0, sim::kDefaultPair);
  // Time: at least the 500 ms repetition floor (minus timer noise), at most
  // minutes.
  EXPECT_GT(m.exec_time.as_seconds(), 0.45);
  EXPECT_LT(m.exec_time.as_seconds(), 300.0);
  // Wall power: above the host floor, below PSU-relevant maxima.
  const sim::HostSpec& host = runner.options().host;
  EXPECT_GT(m.avg_power.as_watts(),
            host.gpu_wait.as_watts() / host.psu_efficiency);
  EXPECT_LT(m.avg_power.as_watts(), 450.0);
}

TEST_P(EveryBenchmarkOnEveryBoard, DownclockedMemoryNeverSpeedsUp) {
  core::MeasurementRunner runner(GetParam().gpu);
  const core::Measurement hh = runner.measure(def(), 0, sim::kDefaultPair);
  const core::Measurement hl = runner.measure(
      def(), 0, {sim::ClockLevel::High, sim::ClockLevel::Low});
  // Allow timer noise, nothing more.
  EXPECT_GE(hl.exec_time.as_seconds(), hh.exec_time.as_seconds() * 0.98);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryBenchmarkOnEveryBoard, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<Cell>& p) {
      std::string n = benchmark_suite()[p.param.bench].name + "_" +
                      sim::to_string(p.param.gpu);
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// --- Intensity classes across architectures -----------------------------

double mem_to_compute_ratio(const char* name, sim::GpuModel gpu) {
  const sim::DeviceSpec& spec = sim::device_spec(gpu);
  const sim::RunProfile p = find_benchmark(name).max_profile();
  double tc = 0, tm = 0;
  for (const sim::KernelProfile& k : p.kernels) {
    const auto t = sim::compute_kernel_timing(spec, k, sim::kDefaultPair);
    tc += t.compute_time.as_seconds() * k.launches;
    tm += t.memory_time.as_seconds() * k.launches;
  }
  return tm / tc;
}

TEST(IntensityClasses, ComputeIntensiveEverywhere) {
  for (const char* name :
       {"backprop", "mri-q", "binomialOptions", "cutcp", "MMul", "lavaMD"}) {
    for (sim::GpuModel gpu : sim::kAllGpus) {
      EXPECT_LT(mem_to_compute_ratio(name, gpu), 1.0)
          << name << " on " << sim::to_string(gpu);
    }
  }
}

TEST(IntensityClasses, MemoryIntensiveEverywhere) {
  for (const char* name : {"streamcluster", "MAdd", "spmv", "lbm", "MTranspose"}) {
    for (sim::GpuModel gpu : sim::kAllGpus) {
      EXPECT_GT(mem_to_compute_ratio(name, gpu), 1.0)
          << name << " on " << sim::to_string(gpu);
    }
  }
}

TEST(IntensityClasses, KeplerIsMoreMemoryLeaningThanTesla) {
  // The GTX 680's compute grew far more than its bandwidth: every workload
  // shifts toward the memory wall relative to the GTX 285.  This drives
  // TABLE IV's diversification.
  for (const BenchmarkDef& def : benchmark_suite()) {
    EXPECT_GT(mem_to_compute_ratio(def.name.c_str(), sim::GpuModel::GTX680),
              mem_to_compute_ratio(def.name.c_str(), sim::GpuModel::GTX285) *
                  0.99)
        << def.name;
  }
}

}  // namespace
}  // namespace gppm::workload
