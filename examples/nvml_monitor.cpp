// NVML-style monitoring: what `nvidia-smi dmon` would show while one of
// the paper's benchmarks runs on a simulated board.
//
// Demonstrates the gppm::nvml shim: attach a device, load a run's virtual
// timeline, and sample clocks / utilization / power / energy on a fixed
// grid — the modern (meter-free) way to collect the paper's power data.
//
// Build & run:  ./build/examples/nvml_monitor [benchmark] [gpu]
#include <iostream>

#include "common/str.hpp"
#include "common/table.hpp"
#include "nvml/nvml.hpp"
#include "workload/suite.hpp"

using namespace gppm;

int main(int argc, char** argv) {
  const std::string bench_name = argc > 1 ? argv[1] : "srad_v1";
  const sim::GpuModel model =
      argc > 2 ? sim::parse_gpu(argv[2]) : sim::GpuModel::GTX680;

  sim::Gpu gpu(model);
  nvml::Session session;
  const nvml::DeviceHandle dev = session.attach_device(gpu);
  std::cout << session.device_name(dev) << " | graphics "
            << session.clock_info(dev).graphics_mhz << " MHz | memory "
            << session.clock_info(dev).memory_mhz << " MHz\n\n";

  const workload::BenchmarkDef& bench = workload::find_benchmark(bench_name);
  const sim::RunExecution exec = gpu.run(bench.max_profile());
  session.begin_run(dev, exec);

  // dmon-style table: one row per 200 ms of virtual time.
  AsciiTable table({"t (s)", "power (W)", "sm%", "mem%", "energy (J)"});
  const double total = exec.total_time.as_seconds();
  const double step = std::max(total / 12.0, 0.05);
  for (double t = 0.0; t <= total; t += step) {
    const Duration at = Duration::seconds(t);
    const nvml::UtilizationRates u = session.utilization(dev, at);
    table.add_row(
        {format_double(t, 2),
         format_double(session.power_usage_mw(dev, at) / 1000.0, 1),
         std::to_string(u.gpu), std::to_string(u.memory),
         format_double(session.total_energy_mj(dev, at) / 1000.0, 1)});
  }
  table.print(std::cout);

  const auto samples = nvml::sample_power(session, dev, exec.total_time,
                                          Duration::milliseconds(50.0));
  std::cout << "\n" << bench_name << " on " << sim::to_string(model) << ": "
            << format_double(total, 3) << " s, board energy "
            << format_double(session.total_energy_mj(dev, exec.total_time) / 1000.0, 1)
            << " J, 50 ms-sampled average board power "
            << format_double(nvml::average_power(samples).as_watts(), 1)
            << " W over " << samples.size() << " samples\n";
  return 0;
}
