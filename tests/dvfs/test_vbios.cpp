#include "dvfs/vbios.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "dvfs/combos.hpp"
#include "gpusim/device_spec.hpp"

namespace gppm::dvfs {
namespace {

using sim::ClockLevel;
using sim::FrequencyPair;
using sim::GpuModel;

class VbiosOnEveryBoard : public ::testing::TestWithParam<GpuModel> {};

TEST_P(VbiosOnEveryBoard, RoundTripPreservesEverything) {
  const auto image = build_vbios(GetParam());
  const PerfTable table = parse_vbios(image);
  EXPECT_EQ(table.model, GetParam());
  EXPECT_EQ(table.boot_index, 0u);
  ASSERT_EQ(table.entries.size(), 9u);

  const sim::DeviceSpec& spec = sim::device_spec(GetParam());
  for (const PStateEntry& e : table.entries) {
    EXPECT_EQ(e.core_mhz,
              std::lround(spec.core_clock.at(e.pair.core).frequency.as_mhz()));
    EXPECT_EQ(e.mem_mhz,
              std::lround(spec.mem_clock.at(e.pair.mem).frequency.as_mhz()));
    EXPECT_EQ(e.core_millivolts,
              std::lround(spec.core_clock.at(e.pair.core).voltage.as_volts() * 1000));
    EXPECT_EQ(e.configurable, is_configurable(GetParam(), e.pair));
  }
}

TEST_P(VbiosOnEveryBoard, PatchMovesBootPState) {
  auto image = build_vbios(GetParam());
  const FrequencyPair target{ClockLevel::Medium, ClockLevel::Medium};
  patch_boot_pstate(image, target);
  const PerfTable table = parse_vbios(image);
  EXPECT_EQ(table.entries[table.boot_index].pair, target);
}

TEST_P(VbiosOnEveryBoard, PatchRejectsNonConfigurablePairs) {
  auto image = build_vbios(GetParam());
  // Every board has at least one non-configurable core-L row.
  for (FrequencyPair p : all_candidate_pairs()) {
    if (!is_configurable(GetParam(), p)) {
      EXPECT_THROW(patch_boot_pstate(image, p), gppm::Error);
      return;
    }
  }
  FAIL() << "expected at least one illegal pair";
}

INSTANTIATE_TEST_SUITE_P(AllBoards, VbiosOnEveryBoard,
                         ::testing::ValuesIn(sim::kAllGpus),
                         [](const ::testing::TestParamInfo<GpuModel>& p) {
                           std::string n = sim::to_string(p.param);
                           n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
                           return n;
                         });

TEST(Vbios, ChecksumDetectsCorruption) {
  auto image = build_vbios(GpuModel::GTX480);
  image[12] ^= 0x01;
  EXPECT_THROW(parse_vbios(image), gppm::Error);
}

TEST(Vbios, BadMagicRejected) {
  auto image = build_vbios(GpuModel::GTX480);
  image[0] = 'X';
  EXPECT_THROW(parse_vbios(image), gppm::Error);
}

TEST(Vbios, TruncatedImageRejected) {
  auto image = build_vbios(GpuModel::GTX480);
  image.pop_back();
  EXPECT_THROW(parse_vbios(image), gppm::Error);
}

TEST(Vbios, BadVersionRejected) {
  auto image = build_vbios(GpuModel::GTX480);
  image[4] = 99;
  EXPECT_THROW(parse_vbios(image), gppm::Error);
}

TEST(Vbios, WholeImageSumsToZeroMod256) {
  const auto image = build_vbios(GpuModel::GTX680);
  unsigned sum = 0;
  for (auto b : image) sum += b;
  EXPECT_EQ(sum & 0xff, 0u);
}

TEST(Vbios, PatchKeepsChecksumValid) {
  auto image = build_vbios(GpuModel::GTX285);
  patch_boot_pstate(image, {ClockLevel::High, ClockLevel::Low});
  EXPECT_NO_THROW(parse_vbios(image));
}

TEST(PerfTable, IndexOfThrowsOnMissingPair) {
  PerfTable t;
  EXPECT_THROW(t.index_of(sim::kDefaultPair), gppm::Error);
}

}  // namespace
}  // namespace gppm::dvfs
