#include "flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace gppm::cli {
namespace {

TEST(CliFlags, IntegersAreDigitsOnlyInRange) {
  EXPECT_EQ(to_integer("0", 0, 9), 0u);
  EXPECT_EQ(to_integer("18446744073709551615", 0, kAnyU64), kAnyU64);
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "1.0",
                           "12abc", "18446744073709551616"}) {
    EXPECT_FALSE(to_integer(text, 0, kAnyU64)) << text;
  }
  EXPECT_FALSE(to_integer("257", 1, 256));
  EXPECT_FALSE(to_integer("0", 1, 256));
}

TEST(CliFlags, BothSyntaxesSetTheDeclaredVariables) {
  std::size_t workers = 4;
  double jitter = 0.0;
  std::string out;
  bool csv = false;
  Flags flags({"gtx460", "--workers=8", "--jitter", "0.25", "--out", "m.gppm",
               "--csv"});
  flags.count("--workers", workers, 1, 256)
      .number("--jitter", jitter, 0.0, 1.0)
      .text("--out", out)
      .toggle("--csv", csv);
  EXPECT_EQ(flags.parse(1), std::vector<std::string>{"gtx460"});
  EXPECT_EQ(workers, 8u);
  EXPECT_EQ(jitter, 0.25);
  EXPECT_EQ(out, "m.gppm");
  EXPECT_TRUE(csv);
  EXPECT_TRUE(flags.given("--workers"));
}

TEST(CliFlags, NumbersAreFiniteAndInRange) {
  for (const char* text : {"nan", "inf", "-inf", "1e400", "1e-400", "2",
                           "-0.5", "0.5x", ".", ""}) {
    double v = 0.0;
    Flags flags({std::string("--jitter=") + text});
    flags.number("--jitter", v, 0.0, 1.0);
    EXPECT_THROW(flags.parse(), UsageError) << text;
  }
  double rate = 1.0;
  Flags off({"--open-loop", "0"});
  off.number("--open-loop", rate, 0.01, 1e7, /*zero_is_off=*/true);
  off.parse();
  EXPECT_EQ(rate, 0.0);
}

TEST(CliFlags, HelpWinsAndCallbackRunsOnlyOnCleanParse) {
  int parsed = 0;
  std::size_t n = 0;
  Flags help({"--n", "x", "-h"}, [&] { ++parsed; });
  help.count("--n", n, 0, 9);
  EXPECT_THROW(help.parse(), HelpRequested);
  Flags bad({"--n", "x"}, [&] { ++parsed; });
  bad.count("--n", n, 0, 9);
  EXPECT_THROW(bad.parse(), UsageError);
  EXPECT_EQ(parsed, 0);
  Flags good({"--n", "3"}, [&] { ++parsed; });
  good.count("--n", n, 0, 9);
  good.parse();
  EXPECT_EQ(parsed, 1);
}

TEST(CliFlags, HostileArgumentListsParseOrThrowUsageError) {
  const std::vector<std::string> tokens = {
      "--n", "--n=", "--n=5", "--on", "--on=1", "--s", "--x", "--", "-", "=",
      "5",   "-5",   "1e9",   "nan",  "",       "a",   "--s=--n", "-h"};
  Rng rng(20);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::string> args(rng.uniform_index(7));
    for (std::string& a : args) a = tokens[rng.uniform_index(tokens.size())];
    std::size_t n = 0;
    bool on = false;
    std::string s;
    Flags flags(args);
    flags.count("--n", n, 0, 9).toggle("--on", on).text("--s", s);
    try {
      const std::vector<std::string> positional = flags.parse(0, 2);
      EXPECT_LE(positional.size(), 2u);
      EXPECT_LE(n, 9u);
    } catch (const UsageError&) {
    } catch (const HelpRequested&) {
    }
  }
}

}  // namespace
}  // namespace gppm::cli
