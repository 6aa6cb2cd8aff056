// AdmissionController unit behaviors: the hard concurrency gate, AIMD
// limit motion (additive raise per success, rate-limited multiplicative
// cut per congestion signal), deadline-aware shedding off the latency
// EWMA, and the neutral error release.  No clock dependence except the
// decrease rate-limit window, which is driven explicitly.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "serve/admission.hpp"

namespace gppm::serve {
namespace {

AdmissionOptions small_options() {
  AdmissionOptions opt;
  opt.initial_limit = 4.0;
  opt.min_limit = 2.0;
  return opt;
}

Duration no_deadline() { return Duration::seconds(0.0); }

TEST(ServeAdmission, AdmitsUpToLimitAndShedsBeyond) {
  AdmissionController ctl(small_options());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ctl.try_acquire(no_deadline())) << "slot " << i;
  }
  EXPECT_EQ(ctl.in_flight(), 4);
  EXPECT_FALSE(ctl.try_acquire(no_deadline()));

  const AdmissionStats stats = ctl.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.shed_limit, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);

  // A released slot admits again.
  ctl.release_success(Duration::milliseconds(1.0));
  EXPECT_EQ(ctl.in_flight(), 3);
  EXPECT_TRUE(ctl.try_acquire(no_deadline()));
}

TEST(ServeAdmission, SuccessRaisesLimitAdditively) {
  AdmissionController ctl(small_options());
  const double before = ctl.limit();
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ctl.release_success(Duration::milliseconds(1.0));
  // One success at limit L raises by 1/L: a full window of successes is
  // worth one unit of concurrency.
  EXPECT_NEAR(ctl.limit(), before + 1.0 / before, 1e-9);
}

TEST(ServeAdmission, CongestionCutsMultiplicativelyAndIsRateLimited) {
  AdmissionOptions opt = small_options();
  opt.initial_limit = 10.0;
  AdmissionController ctl(opt);
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));

  ctl.release_congestion();
  EXPECT_NEAR(ctl.limit(), 10.0 * opt.decrease, 1e-9);
  // A second signal inside the same window is the same burst: no cut.
  ctl.release_congestion();
  EXPECT_NEAR(ctl.limit(), 10.0 * opt.decrease, 1e-9);
  EXPECT_EQ(ctl.stats().backoffs, 1u);

  // Past the window (>= 10 ms with an empty EWMA) the next signal counts.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ctl.release_congestion();
  EXPECT_NEAR(ctl.limit(), 10.0 * opt.decrease * opt.decrease, 1e-9);
  EXPECT_EQ(ctl.stats().backoffs, 2u);
}

TEST(ServeAdmission, LimitNeverFallsBelowFloor) {
  AdmissionOptions opt = small_options();
  opt.initial_limit = 4.0;
  opt.min_limit = 2.0;
  opt.decrease = 0.1;  // one cut would land at 0.4 without the floor
  AdmissionController ctl(opt);
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ctl.release_congestion();
  EXPECT_DOUBLE_EQ(ctl.limit(), 2.0);
  // The floor still admits.
  EXPECT_TRUE(ctl.try_acquire(no_deadline()));
}

TEST(ServeAdmission, DeadlineShorterThanEstimateIsShed) {
  AdmissionController ctl(small_options());
  // Teach the EWMA a ~100 ms service time.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ctl.try_acquire(no_deadline()));
    ctl.release_success(Duration::milliseconds(100.0));
  }
  ASSERT_GT(ctl.stats().ewma_latency_s, 0.05);

  // A 1 ms deadline cannot be met; no deadline (zero) always passes the
  // estimate check; a generous deadline is admitted.
  EXPECT_FALSE(ctl.try_acquire(Duration::milliseconds(1.0)));
  EXPECT_EQ(ctl.stats().shed_deadline, 1u);
  EXPECT_TRUE(ctl.try_acquire(no_deadline()));
  EXPECT_TRUE(ctl.try_acquire(Duration::seconds(5.0)));
}

TEST(ServeAdmission, ErrorReleaseIsNeutral) {
  AdmissionController ctl(small_options());
  const double before = ctl.limit();
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ctl.release_error();
  EXPECT_DOUBLE_EQ(ctl.limit(), before);
  EXPECT_EQ(ctl.in_flight(), 0);
  EXPECT_EQ(ctl.stats().backoffs, 0u);
}

TEST(ServeAdmission, ConstructionRejectsInvertedAndZeroLimits) {
  // Boundary sweep of the Options contract: inverted clamp, zero/sub-one
  // limits, and out-of-range knobs all throw a typed gppm::Error at
  // construction instead of silently producing a pinned/inverted clamp.
  auto with = [](auto mutate) {
    AdmissionOptions opt;
    mutate(opt);
    return opt;
  };
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.min_limit = 8.0;
                 o.max_limit = 4.0;  // inverted
               })),
               gppm::Error);
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.min_limit = 0.0;  // zero floor
               })),
               gppm::Error);
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.max_limit = 0.0;  // zero ceiling (also < min)
               })),
               gppm::Error);
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.initial_limit = 0.0;  // zero start
               })),
               gppm::Error);
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.decrease = 1.0;  // no decrease
               })),
               gppm::Error);
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.ewma_alpha = 0.0;  // EWMA never updates
               })),
               gppm::Error);
  EXPECT_THROW(AdmissionController(with([](AdmissionOptions& o) {
                 o.deadline_headroom = 0.0;  // sheds every deadline request
               })),
               gppm::Error);
  // min == max is a legal degenerate (fixed limit); exactly-1 floors work.
  EXPECT_NO_THROW(AdmissionController(with([](AdmissionOptions& o) {
    o.min_limit = o.max_limit = o.initial_limit = 1.0;
  })));
}

TEST(ServeAdmission, ConstructionRejectsNaNLimits) {
  // Regression: a NaN initial_limit survived std::clamp and pinned the AIMD
  // window open — `in_flight + 1 > NaN` is false forever, so the controller
  // admitted without bound.  NaN anywhere in Options must throw instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int field = 0; field < 4; ++field) {
    AdmissionOptions opt;
    if (field == 0) opt.initial_limit = nan;
    if (field == 1) opt.min_limit = nan;
    if (field == 2) opt.max_limit = nan;
    if (field == 3) opt.deadline_headroom = nan;
    EXPECT_THROW(AdmissionController ctl(opt), gppm::Error) << "field "
                                                            << field;
  }
  AdmissionOptions inf_opt;
  inf_opt.max_limit = std::numeric_limits<double>::infinity();
  EXPECT_THROW(AdmissionController ctl(inf_opt), gppm::Error);
}

TEST(ServeAdmission, OutOfRangeInitialLimitClampsIntoBand) {
  AdmissionOptions opt;
  opt.min_limit = 4.0;
  opt.max_limit = 16.0;
  opt.initial_limit = 1000.0;  // above the ceiling: clamped, not rejected
  AdmissionController ctl(opt);
  EXPECT_DOUBLE_EQ(ctl.limit(), 16.0);
}

TEST(ServeAdmission, StatsSnapshotIsCoherent) {
  AdmissionController ctl(small_options());
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ASSERT_TRUE(ctl.try_acquire(no_deadline()));
  ctl.release_success(Duration::milliseconds(2.0));

  const AdmissionStats stats = ctl.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.in_flight, 1);
  EXPECT_GT(stats.limit, 0.0);
  EXPECT_GT(stats.ewma_latency_s, 0.0);
}

}  // namespace
}  // namespace gppm::serve
