#include "gpusim/arch.hpp"

#include "common/error.hpp"

namespace gppm::sim {

std::string to_string(Architecture a) {
  switch (a) {
    case Architecture::Tesla: return "Tesla";
    case Architecture::Fermi: return "Fermi";
    case Architecture::Kepler: return "Kepler";
  }
  throw Error("unknown architecture");
}

std::string to_string(GpuModel m) {
  switch (m) {
    case GpuModel::GTX285: return "GTX 285";
    case GpuModel::GTX460: return "GTX 460";
    case GpuModel::GTX480: return "GTX 480";
    case GpuModel::GTX680: return "GTX 680";
  }
  throw Error("unknown GPU model");
}

GpuModel parse_gpu(const std::string& name) {
  if (name == "gtx285") return GpuModel::GTX285;
  if (name == "gtx460") return GpuModel::GTX460;
  if (name == "gtx480") return GpuModel::GTX480;
  if (name == "gtx680") return GpuModel::GTX680;
  throw Error("unknown GPU '" + name +
              "' (expected gtx285, gtx460, gtx480 or gtx680)");
}

std::string to_string(ClockLevel l) {
  switch (l) {
    case ClockLevel::Low: return "L";
    case ClockLevel::Medium: return "M";
    case ClockLevel::High: return "H";
  }
  throw Error("unknown clock level");
}

std::string to_string(FrequencyPair p) {
  return "(" + to_string(p.core) + "-" + to_string(p.mem) + ")";
}

std::size_t level_index(ClockLevel l) {
  switch (l) {
    case ClockLevel::Low: return 0;
    case ClockLevel::Medium: return 1;
    case ClockLevel::High: return 2;
  }
  throw Error("unknown clock level");
}

}  // namespace gppm::sim
