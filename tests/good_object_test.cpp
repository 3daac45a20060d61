// Tests for the good-object algorithm (the [4]-style explore/exploit
// comparator): termination, the O(m + n log n) total-probe shape when a
// commonly liked object exists, and graceful behaviour when none does.
#include <gtest/gtest.h>

#include <cmath>

#include "tmwia/core/good_object.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::core {
namespace {

/// A matrix where column `shared` is all ones and the rest is sparse
/// random likes (density `density`).
matrix::PreferenceMatrix shared_good_column(std::size_t n, std::size_t m, ObjectId shared,
                                            double density, rng::Rng& rng) {
  matrix::PreferenceMatrix mat(n, m);
  for (PlayerId p = 0; p < n; ++p) {
    for (ObjectId o = 0; o < m; ++o) {
      if (o == shared || rng.bernoulli(density)) mat.set_value(p, o, true);
    }
  }
  return mat;
}

TEST(GoodObject, EveryoneFindsSomethingWithSharedColumn) {
  rng::Rng rng(1);
  const auto mat = shared_good_column(128, 256, 77, 0.0, rng);
  billboard::ProbeOracle oracle(mat);
  const auto res = good_object(oracle, {}, rng::Rng(2));
  EXPECT_EQ(res.unsatisfied, 0u);
  for (PlayerId p = 0; p < 128; ++p) {
    ASSERT_TRUE(res.found[p].has_value());
    EXPECT_TRUE(mat.value(p, *res.found[p]));
  }
}

TEST(GoodObject, TotalProbesNearMPlusNLogN) {
  // [4]: O(m + n log |P|) probes overall. With only the shared column
  // good, exploration costs ~m total before the first hit; exploitation
  // then spreads it in ~log n rounds.
  const std::size_t n = 256;
  const std::size_t m = 512;
  rng::Rng rng(3);
  const auto mat = shared_good_column(n, m, 13, 0.0, rng);
  billboard::ProbeOracle oracle(mat);
  const auto res = good_object(oracle, {}, rng::Rng(4));
  EXPECT_EQ(res.unsatisfied, 0u);
  const double budget =
      8.0 * (static_cast<double>(m) +
             static_cast<double>(n) * std::log2(static_cast<double>(n)));
  EXPECT_LT(static_cast<double>(res.total_probes), budget);
  // Far cheaper than everyone probing everything.
  EXPECT_LT(res.total_probes, static_cast<std::uint64_t>(n) * m / 4);
}

TEST(GoodObject, DenseLikesAreFoundAlmostImmediately) {
  rng::Rng rng(5);
  auto inst = matrix::uniform_random(64, 128, rng);  // density ~1/2
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = good_object(oracle, {}, rng::Rng(6));
  EXPECT_EQ(res.unsatisfied, 0u);
  EXPECT_LT(res.rounds, 40u);  // geometric with p ~ 1/2 per probe
}

TEST(GoodObject, PlayerWhoLikesNothingExhaustsAndStops) {
  matrix::PreferenceMatrix mat(4, 16);
  // Player 0 likes nothing; others like everything.
  for (PlayerId p = 1; p < 4; ++p) {
    for (ObjectId o = 0; o < 16; ++o) mat.set_value(p, o, true);
  }
  billboard::ProbeOracle oracle(mat);
  const auto res = good_object(oracle, {}, rng::Rng(7));
  EXPECT_FALSE(res.found[0].has_value());
  for (PlayerId p = 1; p < 4; ++p) EXPECT_TRUE(res.found[p].has_value());
  EXPECT_EQ(res.unsatisfied, 0u);  // exhausted players are resolved, not stuck
  // Player 0 probed every object exactly once in exploration.
  EXPECT_GE(oracle.export_ledger().charged[0], 16u);
}

TEST(GoodObject, RespectsRoundCap) {
  matrix::PreferenceMatrix mat(8, 64);  // nobody likes anything
  billboard::ProbeOracle oracle(mat);
  GoodObjectParams params;
  params.max_rounds = 5;
  const auto res = good_object(oracle, params, rng::Rng(8));
  EXPECT_LE(res.rounds, 5u);
  EXPECT_EQ(res.unsatisfied, 8u);
}

TEST(GoodObject, PureExploitNeverStarvesBeforeFirstPost) {
  // explore_prob = 0 would deadlock without the "explore while no
  // recommendations exist" rule.
  rng::Rng rng(9);
  const auto mat = shared_good_column(32, 64, 5, 0.0, rng);
  billboard::ProbeOracle oracle(mat);
  GoodObjectParams params;
  params.explore_prob = 0.0;
  const auto res = good_object(oracle, params, rng::Rng(10));
  EXPECT_EQ(res.unsatisfied, 0u);
}

TEST(GoodObject, DeterministicGivenSeed) {
  rng::Rng rng(11);
  const auto mat = shared_good_column(64, 64, 9, 0.05, rng);
  billboard::ProbeOracle o1(mat), o2(mat);
  const auto r1 = good_object(o1, {}, rng::Rng(12));
  const auto r2 = good_object(o2, {}, rng::Rng(12));
  EXPECT_EQ(r1.found, r2.found);
  EXPECT_EQ(r1.total_probes, r2.total_probes);
}

}  // namespace
}  // namespace tmwia::core
