#include "gpusim/arch.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace gppm::sim {
namespace {

TEST(Arch, ArchitectureNames) {
  EXPECT_EQ(to_string(Architecture::Tesla), "Tesla");
  EXPECT_EQ(to_string(Architecture::Fermi), "Fermi");
  EXPECT_EQ(to_string(Architecture::Kepler), "Kepler");
}

TEST(Arch, GpuNamesMatchPaper) {
  EXPECT_EQ(to_string(GpuModel::GTX285), "GTX 285");
  EXPECT_EQ(to_string(GpuModel::GTX460), "GTX 460");
  EXPECT_EQ(to_string(GpuModel::GTX480), "GTX 480");
  EXPECT_EQ(to_string(GpuModel::GTX680), "GTX 680");
}

TEST(Arch, ParseGpuAcceptsTheFourCliNames) {
  EXPECT_EQ(parse_gpu("gtx285"), GpuModel::GTX285);
  EXPECT_EQ(parse_gpu("gtx460"), GpuModel::GTX460);
  EXPECT_EQ(parse_gpu("gtx480"), GpuModel::GTX480);
  EXPECT_EQ(parse_gpu("gtx680"), GpuModel::GTX680);
}

TEST(Arch, ParseGpuRejectsUnknownNamesListingTheValidOnes) {
  // Model-file tokens (GTX680) are not CLI names.
  for (const char* bad : {"GTX680", "gtx 680", "", "gtx1080"}) {
    try {
      parse_gpu(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      const std::string msg = e.what();
      for (const char* name : {"gtx285", "gtx460", "gtx480", "gtx680"}) {
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
      }
    }
  }
}

TEST(Arch, PairNotationMatchesPaper) {
  EXPECT_EQ(to_string(FrequencyPair{ClockLevel::High, ClockLevel::Low}),
            "(H-L)");
  EXPECT_EQ(to_string(kDefaultPair), "(H-H)");
}

TEST(Arch, LevelIndices) {
  EXPECT_EQ(level_index(ClockLevel::Low), 0u);
  EXPECT_EQ(level_index(ClockLevel::Medium), 1u);
  EXPECT_EQ(level_index(ClockLevel::High), 2u);
}

TEST(Arch, PairEquality) {
  const FrequencyPair a{ClockLevel::High, ClockLevel::Medium};
  const FrequencyPair b{ClockLevel::High, ClockLevel::Medium};
  const FrequencyPair c{ClockLevel::Medium, ClockLevel::High};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Arch, AllGpusListsFourBoards) {
  EXPECT_EQ(kAllGpus.size(), 4u);
}

}  // namespace
}  // namespace gppm::sim
