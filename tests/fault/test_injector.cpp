#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace gppm::fault {
namespace {

std::vector<bool> firing_sequence(FaultInjector& injector,
                                  std::string_view site, int checks) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(checks));
  for (int i = 0; i < checks; ++i) out.push_back(injector.should_fire(site));
  return out;
}

TEST(FaultInjector, DefaultConstructedNeverFires) {
  FaultInjector injector;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.should_fire(kSiteMeterDrop));
  }
  EXPECT_EQ(injector.total_checks(), 100u);
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST(FaultInjector, SameSeedSameFiringSequence) {
  FaultInjector a(FaultPlan::default_profile(), 5);
  FaultInjector b(FaultPlan::default_profile(), 5);
  EXPECT_EQ(firing_sequence(a, kSiteMeterDrop, 500),
            firing_sequence(b, kSiteMeterDrop, 500));
  EXPECT_EQ(firing_sequence(a, kSiteNvmlQuery, 500),
            firing_sequence(b, kSiteNvmlQuery, 500));
}

TEST(FaultInjector, SiteStreamsAreIndependentOfOtherSites) {
  // The nvml.query stream must not shift when other sites are checked in
  // between — each site forks its own RNG stream from the seed.
  FaultInjector alone(FaultPlan::default_profile(), 9);
  const std::vector<bool> reference =
      firing_sequence(alone, kSiteNvmlQuery, 300);

  FaultInjector interleaved(FaultPlan::default_profile(), 9);
  std::vector<bool> seq;
  for (int i = 0; i < 300; ++i) {
    interleaved.should_fire(kSiteMeterDrop);
    seq.push_back(interleaved.should_fire(kSiteNvmlQuery));
    interleaved.should_fire(kSiteMeterSpike);
  }
  EXPECT_EQ(seq, reference);
}

TEST(FaultInjector, BurstsFireConsecutively) {
  const FaultPlan plan = FaultPlan::parse_string("meter.drop p=0.05 burst=4\n");
  FaultInjector injector(plan, 11);
  const std::vector<bool> seq = firing_sequence(injector, kSiteMeterDrop, 2000);
  ASSERT_GT(injector.total_fires(), 0u);
  // Every maximal run of consecutive fires is a union of bursts, so any run
  // not cut off by the end of the sequence is at least `burst` long.
  std::size_t run = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i]) {
      ++run;
    } else {
      if (run > 0) {
        EXPECT_GE(run, 4u) << "short burst ending at check " << i;
      }
      run = 0;
    }
  }
}

TEST(FaultInjector, StatsCountChecksAndFires) {
  const FaultPlan plan =
      FaultPlan::parse_string("meter.drop p=1\nmeter.spike p=0\n");
  FaultInjector injector(plan, 3);
  for (int i = 0; i < 40; ++i) injector.should_fire(kSiteMeterDrop);
  for (int i = 0; i < 25; ++i) injector.should_fire(kSiteMeterSpike);
  const auto& stats = injector.stats();
  ASSERT_TRUE(stats.contains("meter.drop"));
  ASSERT_TRUE(stats.contains("meter.spike"));
  EXPECT_EQ(stats.at("meter.drop").checks, 40u);
  EXPECT_EQ(stats.at("meter.drop").fires, 40u);  // p=1 always fires
  EXPECT_EQ(stats.at("meter.spike").checks, 25u);
  EXPECT_EQ(stats.at("meter.spike").fires, 0u);  // p=0 never fires
  EXPECT_EQ(injector.total_checks(), 65u);
  EXPECT_EQ(injector.total_fires(), 40u);
}

TEST(FaultInjector, UnknownSitesNeverFireButAreCounted) {
  FaultInjector injector(FaultPlan::default_profile(), 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(injector.should_fire("bogus.site"));
  }
  ASSERT_TRUE(injector.stats().contains("bogus.site"));
  EXPECT_EQ(injector.stats().at("bogus.site").checks, 50u);
  EXPECT_EQ(injector.stats().at("bogus.site").fires, 0u);
}

TEST(FaultInjector, ResetReproducesOrRediversifies) {
  FaultInjector injector(FaultPlan::default_profile(), 21);
  const std::vector<bool> first =
      firing_sequence(injector, kSiteMeterDrop, 400);

  injector.reset(21);
  EXPECT_EQ(injector.total_checks(), 0u);  // statistics start over
  EXPECT_EQ(firing_sequence(injector, kSiteMeterDrop, 400), first);

  injector.reset(22);
  EXPECT_NE(firing_sequence(injector, kSiteMeterDrop, 400), first);
}

TEST(FaultInjector, ConcurrentChecksAreSafeAndFullyAccounted) {
  // One injector shared by concurrent socket paths (the cluster chaos
  // profile): checks from many threads must neither race nor lose counts.
  const FaultPlan plan = FaultPlan::parse_string(
      "net.reset p=0.2 burst=2\nnet.short_read p=0.4\n");
  FaultInjector injector(plan, 99);
  constexpr int kThreads = 4;
  constexpr int kChecksPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&injector, t] {
      const std::string_view site =
          t % 2 == 0 ? "net.reset" : "net.short_read";
      for (int i = 0; i < kChecksPerThread; ++i) {
        injector.should_fire(site);
        injector.uniform("net.shared");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(injector.total_checks(),
            static_cast<std::uint64_t>(kThreads) * kChecksPerThread);
  const auto stats = injector.stats();
  EXPECT_EQ(stats.at("net.reset").checks, 2u * kChecksPerThread);
  EXPECT_EQ(stats.at("net.short_read").checks, 2u * kChecksPerThread);
  EXPECT_GT(injector.total_fires(), 0u);
}

TEST(FaultInjector, MagnitudeComesFromThePlanWithDefaultFallback) {
  const FaultPlan plan = FaultPlan::parse_string("meter.spike mag=2.5\n");
  const FaultInjector injector(plan, 1);
  EXPECT_NEAR(injector.magnitude(kSiteMeterSpike), 2.5, 1e-12);
  EXPECT_NEAR(injector.magnitude("unplanned.site"), SiteSpec{}.magnitude,
              1e-12);
}

TEST(FaultInjector, UniformDrawsAreDeterministicAndInRange) {
  FaultInjector a(FaultPlan::default_profile(), 13);
  FaultInjector b(FaultPlan::default_profile(), 13);
  for (int i = 0; i < 100; ++i) {
    const double ua = a.uniform(kSiteNvmlQuery);
    EXPECT_DOUBLE_EQ(ua, b.uniform(kSiteNvmlQuery));
    EXPECT_GE(ua, 0.0);
    EXPECT_LT(ua, 1.0);
  }
  // uniform() counts neither as check nor fire.
  EXPECT_EQ(a.total_checks(), 0u);
}

}  // namespace
}  // namespace gppm::fault
