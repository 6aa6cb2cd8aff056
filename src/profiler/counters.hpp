// Per-architecture hardware-counter catalogs.
//
// The paper's modeling uses the CUDA Profiler's counters: 32 on the Tesla
// board, 74 on the Fermi boards, 108 on the Kepler board (Section IV-A).
// Each catalog entry derives its value from the engine's ground-truth
// events and carries the paper's core-event / memory-event classification
// ("core-events are the events which happen within the core where
// memory-events are un-core events such as memory accesses").
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gpusim/arch.hpp"
#include "gpusim/events.hpp"

namespace gppm::profiler {

/// The paper's two-way counter classification used by Eq. 1 / Eq. 2.
enum class EventClass { Core, Memory };

std::string to_string(EventClass c);

/// One hardware counter exposed by an architecture's profiler.
struct CounterDef {
  std::string name;
  EventClass klass;
  /// Derive the counter value from ground-truth events.  Deterministic;
  /// the profiler layer adds the observation artifacts on top.
  std::function<double(const sim::HardwareEvents&)> extract;
};

/// The counter catalog of an architecture.  Sizes match the paper exactly:
/// Tesla 32, Fermi 74, Kepler 108.  Built once per process.
const std::vector<CounterDef>& counter_catalog(sim::Architecture arch);

/// Identity of a counter list: a 64-bit FNV-1a hash over its ordered
/// (name, class) entries, each written as a little-endian u32 name length,
/// the name bytes and a class byte, after a u32 entry count.  Hashing that
/// byte form (never the in-memory layout) makes the id the same on every
/// host.  Reordering the list, or renaming or reclassing one entry,
/// changes the id (barring a 64-bit hash collision).
std::uint64_t catalog_id(std::span<const CounterDef> catalog);

/// catalog_id(counter_catalog(arch)), computed once per process.
std::uint64_t catalog_id(sim::Architecture arch);

/// Index of a counter by name; throws on unknown names.
std::size_t counter_index(sim::Architecture arch, const std::string& name);

}  // namespace gppm::profiler
