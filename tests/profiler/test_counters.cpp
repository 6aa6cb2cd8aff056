#include "profiler/counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/str.hpp"
#include "gpusim/device_spec.hpp"

namespace gppm::profiler {
namespace {

sim::HardwareEvents sample_events() {
  sim::HardwareEvents e;
  e.insts_issued = 2.2e9;
  e.insts_executed = 2.0e9;
  e.flops_sp = 3.0e10;
  e.flops_dp = 1.0e8;
  e.int_insts = 5.0e9;
  e.special_insts = 2.0e8;
  e.gld_requests = 4.0e7;
  e.gst_requests = 1.0e7;
  e.gld_transactions = 2.0e8;
  e.gst_transactions = 5.0e7;
  e.l1_hits = 8.0e7;
  e.l1_misses = 1.2e8;
  e.l2_reads = 1.2e8;
  e.l2_writes = 5.0e7;
  e.dram_reads = 9.0e7;
  e.dram_writes = 4.0e7;
  e.shared_loads = 6.0e8;
  e.shared_stores = 4.0e8;
  e.shared_bank_conflicts = 1.0e7;
  e.tex_requests = 2.0e6;
  e.tex_hits = 1.5e6;
  e.branches = 1.5e8;
  e.divergent_branches = 2.0e7;
  e.warps_launched = 8.0e6;
  e.blocks_launched = 1.0e6;
  e.threads_launched = 2.56e8;
  e.active_cycles = 1.0e9;
  e.elapsed_cycles = 1.4e9;
  e.active_warps = 3.0e10;
  e.barrier_syncs = 4.0e6;
  return e;
}

class CatalogPerArch : public ::testing::TestWithParam<sim::Architecture> {};

TEST_P(CatalogPerArch, NamesAreUnique) {
  std::set<std::string> names;
  for (const CounterDef& def : counter_catalog(GetParam())) {
    EXPECT_TRUE(names.insert(def.name).second) << def.name;
  }
}

TEST_P(CatalogPerArch, BothEventClassesPresent) {
  bool has_core = false, has_memory = false;
  for (const CounterDef& def : counter_catalog(GetParam())) {
    if (def.klass == EventClass::Core) has_core = true;
    if (def.klass == EventClass::Memory) has_memory = true;
  }
  EXPECT_TRUE(has_core);
  EXPECT_TRUE(has_memory);
}

TEST_P(CatalogPerArch, ExtractorsNonNegativeAndFinite) {
  const sim::HardwareEvents e = sample_events();
  for (const CounterDef& def : counter_catalog(GetParam())) {
    const double v = def.extract(e);
    EXPECT_GE(v, 0.0) << def.name;
    EXPECT_TRUE(std::isfinite(v)) << def.name;
  }
}

TEST_P(CatalogPerArch, ZeroEventsGiveZeroCounters) {
  const sim::HardwareEvents zero;
  for (const CounterDef& def : counter_catalog(GetParam())) {
    EXPECT_EQ(def.extract(zero), 0.0) << def.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, CatalogPerArch,
                         ::testing::Values(sim::Architecture::Tesla,
                                           sim::Architecture::Fermi,
                                           sim::Architecture::Kepler),
                         [](const auto& p) {
                           return sim::to_string(p.param);
                         });

TEST(Catalog, SizesMatchPaper) {
  EXPECT_EQ(counter_catalog(sim::Architecture::Tesla).size(), 32u);
  EXPECT_EQ(counter_catalog(sim::Architecture::Fermi).size(), 74u);
  EXPECT_EQ(counter_catalog(sim::Architecture::Kepler).size(), 108u);
}

TEST(Catalog, SizesMatchDeviceSpecs) {
  for (sim::GpuModel m : sim::kAllGpus) {
    const sim::DeviceSpec& spec = sim::device_spec(m);
    EXPECT_EQ(counter_catalog(spec.architecture).size(),
              static_cast<std::size_t>(spec.performance_counter_count));
  }
}

TEST(Catalog, UncoreCountersAreMemoryClass) {
  for (sim::Architecture arch :
       {sim::Architecture::Fermi, sim::Architecture::Kepler}) {
    for (const CounterDef& def : counter_catalog(arch)) {
      if (starts_with(def.name, "l2_") || starts_with(def.name, "fb_")) {
        EXPECT_EQ(def.klass, EventClass::Memory) << def.name;
      }
    }
  }
}

TEST(Catalog, SmCountersAreCoreClass) {
  for (sim::Architecture arch :
       {sim::Architecture::Fermi, sim::Architecture::Kepler}) {
    for (const char* name : {"inst_executed", "branch", "shared_load"}) {
      const auto& catalog = counter_catalog(arch);
      EXPECT_EQ(catalog[counter_index(arch, name)].klass, EventClass::Core)
          << name;
    }
  }
}

TEST(Catalog, SubpartitionSplitsSumToWhole) {
  const sim::HardwareEvents e = sample_events();
  const auto& catalog = counter_catalog(sim::Architecture::Kepler);
  double sum = 0.0;
  for (const CounterDef& def : catalog) {
    if (starts_with(def.name, "l2_subp") && contains(def.name, "_read_requests")) {
      sum += def.extract(e);
    }
  }
  EXPECT_NEAR(sum, e.l2_reads, e.l2_reads * 1e-9);
}

TEST(Catalog, CounterIndexFindsAndThrows) {
  EXPECT_EQ(counter_index(sim::Architecture::Tesla, "instructions"), 0u);
  EXPECT_THROW(counter_index(sim::Architecture::Tesla, "no_such_counter"),
               gppm::Error);
}

TEST(Catalog, ProfTriggersAreConstantZero) {
  const sim::HardwareEvents e = sample_events();
  for (sim::Architecture arch :
       {sim::Architecture::Tesla, sim::Architecture::Fermi,
        sim::Architecture::Kepler}) {
    int trigger_count = 0;
    for (const CounterDef& def : counter_catalog(arch)) {
      if (starts_with(def.name, "prof_trigger")) {
        EXPECT_EQ(def.extract(e), 0.0);
        ++trigger_count;
      }
    }
    EXPECT_EQ(trigger_count, 8);
  }
}

TEST(CatalogId, DistinctPerArchitecture) {
  const std::uint64_t tesla = catalog_id(sim::Architecture::Tesla);
  const std::uint64_t fermi = catalog_id(sim::Architecture::Fermi);
  const std::uint64_t kepler = catalog_id(sim::Architecture::Kepler);
  EXPECT_NE(tesla, fermi);
  EXPECT_NE(tesla, kepler);
  EXPECT_NE(fermi, kepler);
}

TEST(CatalogId, RecomputedFromCopyIsEqual) {
  for (sim::Architecture arch :
       {sim::Architecture::Tesla, sim::Architecture::Fermi,
        sim::Architecture::Kepler}) {
    const std::vector<CounterDef> copy = counter_catalog(arch);
    EXPECT_EQ(catalog_id(copy), catalog_id(arch)) << sim::to_string(arch);
  }
}

TEST(CatalogId, OrderNameAndClassChangeTheId) {
  const std::vector<CounterDef>& kepler =
      counter_catalog(sim::Architecture::Kepler);
  const std::uint64_t id = catalog_id(sim::Architecture::Kepler);

  std::vector<CounterDef> swapped = kepler;
  std::swap(swapped[3], swapped[40]);
  EXPECT_NE(catalog_id(swapped), id);

  std::vector<CounterDef> renamed = kepler;
  renamed[17].name += "x";
  EXPECT_NE(catalog_id(renamed), id);

  std::vector<CounterDef> reclassed = kepler;
  reclassed[17].klass = reclassed[17].klass == EventClass::Core
                            ? EventClass::Memory
                            : EventClass::Core;
  EXPECT_NE(catalog_id(reclassed), id);
}

TEST(CatalogId, PinnedByteForm) {
  // FNV-1a 64 over the documented byte form (u32 LE count, then per entry
  // u32 LE name length, name bytes, class byte), computed independently:
  // the id hashes bytes, not host memory, so it is the same on any host.
  EXPECT_EQ(catalog_id(std::vector<CounterDef>{}), 0x4d25767f9dce13f5ull);
  const std::vector<CounterDef> one = {{"ab", EventClass::Memory, {}}};
  EXPECT_EQ(catalog_id(one), 0x158587f7eda7f90cull);
}

TEST(EventClassName, Strings) {
  EXPECT_EQ(to_string(EventClass::Core), "core");
  EXPECT_EQ(to_string(EventClass::Memory), "memory");
}

}  // namespace
}  // namespace gppm::profiler
