// Architecture and clock-level enumerations shared across the simulator,
// DVFS controller and the modeling layer.
#pragma once

#include <array>
#include <string>

namespace gppm::sim {

/// NVIDIA GPU architecture generations covered by the paper.
enum class Architecture { Tesla, Fermi, Kepler };

/// The four evaluated boards (paper TABLE I).
enum class GpuModel { GTX285, GTX460, GTX480, GTX680 };

/// All boards, in the paper's column order.
constexpr std::array<GpuModel, 4> kAllGpus = {
    GpuModel::GTX285, GpuModel::GTX460, GpuModel::GTX480, GpuModel::GTX680};

/// Discrete clock level of one domain (paper: Core/Mem-L, -M, -H).
enum class ClockLevel { Low, Medium, High };

constexpr std::array<ClockLevel, 3> kAllLevels = {
    ClockLevel::Low, ClockLevel::Medium, ClockLevel::High};

/// A (core level, memory level) operating point, e.g. (H-L).
struct FrequencyPair {
  ClockLevel core = ClockLevel::High;
  ClockLevel mem = ClockLevel::High;

  bool operator==(const FrequencyPair&) const = default;
};

/// Default operating point of every board (paper: "(H-H) is the default").
constexpr FrequencyPair kDefaultPair{ClockLevel::High, ClockLevel::High};

/// "Tesla" / "Fermi" / "Kepler".
std::string to_string(Architecture a);

/// "GTX 285" etc., matching the paper's naming.
std::string to_string(GpuModel m);

/// The command-line board names gtx285, gtx460, gtx480 and gtx680.  Throws
/// gppm::Error listing them for any other name.  (Model files carry their
/// own GTX680-style tokens; core/serialization parses those.)
GpuModel parse_gpu(const std::string& name);

/// "L" / "M" / "H".
std::string to_string(ClockLevel l);

/// "(H-L)" notation used throughout the paper's TABLE IV.
std::string to_string(FrequencyPair p);

/// Index 0/1/2 for Low/Medium/High (used to address per-level tables).
std::size_t level_index(ClockLevel l);

}  // namespace gppm::sim
