// Tests for the stats module: summaries, Wilson intervals, regression
// fits (used by the benches to report empirical scaling exponents).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tmwia/stats/summary.hpp"

namespace tmwia::stats {
namespace {

TEST(Summary, EmptyBehaviour) {
  Summary s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_THROW((void)s.max(), std::logic_error);
}

TEST(Summary, MomentsKnownValues) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

// The maximum of negative observations is not the 0 an empty summary
// starts from, and reads between adds see every add so far.
TEST(Summary, MaxThenAddStillWorks) {
  Summary s;
  s.add(-3.0);
  s.add(-1.0);
  EXPECT_DOUBLE_EQ(s.max(), -1.0);
  s.add(-2.0);
  EXPECT_DOUBLE_EQ(s.max(), -1.0);
  EXPECT_DOUBLE_EQ(s.mean(), -2.0);
}

TEST(Wilson, ZeroTrials) {
  const auto p = wilson_interval(0, 0);
  EXPECT_EQ(p.estimate, 0.0);
  EXPECT_EQ(p.lo, 0.0);
  EXPECT_EQ(p.hi, 1.0);
}

TEST(Wilson, AllSuccesses) {
  const auto p = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(p.estimate, 1.0);
  EXPECT_GT(p.lo, 0.9);
  EXPECT_DOUBLE_EQ(p.hi, 1.0);
}

TEST(Wilson, HalfAndHalfCentered) {
  const auto p = wilson_interval(500, 1000);
  EXPECT_DOUBLE_EQ(p.estimate, 0.5);
  EXPECT_NEAR(p.lo, 0.469, 0.005);
  EXPECT_NEAR(p.hi, 0.531, 0.005);
}

TEST(Wilson, IntervalShrinksWithSamples) {
  const auto small = wilson_interval(5, 10);
  const auto big = wilson_interval(500, 1000);
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
}

TEST(Fit, ExactLine) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys{3, 5, 7, 9, 11};  // y = 1 + 2x
  const auto f = fit_line(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Fit, RejectsDegenerateInput) {
  std::vector<double> xs{1};
  std::vector<double> ys{2};
  EXPECT_THROW(fit_line(xs, ys), std::invalid_argument);
  std::vector<double> xs2{1, 2};
  std::vector<double> ys2{1, 2, 3};
  EXPECT_THROW(fit_line(xs2, ys2), std::invalid_argument);
}

TEST(Fit, ConstantXGivesZeroSlope) {
  std::vector<double> xs{2, 2, 2};
  std::vector<double> ys{1, 2, 3};
  const auto f = fit_line(xs, ys);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(Fit, LogLogRecoversPolynomialDegree) {
  std::vector<double> xs, ys;
  for (double x : {16.0, 32.0, 64.0, 128.0, 256.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);  // degree 2
  }
  const auto f = fit_loglog(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
}

TEST(Fit, LogLogOnLogarithmicDataHasSmallSlope) {
  // y = log2(x): the log-log slope over a dyadic range is well under 1
  // (that is the signature a bench uses to call a curve "polylog").
  std::vector<double> xs, ys;
  for (double x : {256.0, 512.0, 1024.0, 2048.0, 4096.0}) {
    xs.push_back(x);
    ys.push_back(std::log2(x));
  }
  const auto f = fit_loglog(xs, ys);
  EXPECT_LT(f.slope, 0.25);
}

TEST(Fit, LogLogRejectsNonPositive) {
  std::vector<double> xs{1, 2};
  std::vector<double> ys{0, 1};
  EXPECT_THROW(fit_loglog(xs, ys), std::invalid_argument);
}

}  // namespace
}  // namespace tmwia::stats
