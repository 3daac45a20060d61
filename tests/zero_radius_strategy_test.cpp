// Tests for the distributed per-player Zero Radius (state machines
// under the lockstep RoundScheduler), including the
// simulation-faithfulness theorem of this codebase: from the same
// shared coins, the distributed execution and the centralized engine
// produce BIT-IDENTICAL outputs and identical per-player probe counts.
#include <gtest/gtest.h>

#include <numeric>

#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/zero_radius_strategy.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::core {
namespace {

struct EqCase {
  // n players x m objects; m == 0 means square (m = n). The packed
  // 32-bit pair keeps the printed parameters of the square cases, and
  // with them their test names, unchanged.
  std::uint32_t n;
  std::uint32_t m;
  double alpha;
  std::uint64_t seed;
};

class DistributedEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(DistributedEquivalence, MatchesCentralizedBitForBit) {
  const auto [n, m_or_square, alpha, seed] = GetParam();
  const std::size_t m = m_or_square == 0 ? n : m_or_square;
  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, m, {alpha, 0}, gen);

  const rng::Rng shared_coins(seed ^ 0xD15C0);

  // Centralized engine.
  billboard::ProbeOracle central_oracle(inst.matrix);
  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(m);
  std::iota(objects.begin(), objects.end(), 0u);
  const auto central = zero_radius_bits(central_oracle, nullptr, players, objects, alpha,
                                        Params::practical(), shared_coins);

  // Distributed execution.
  billboard::ProbeOracle dist_oracle(inst.matrix);
  const auto dist =
      zero_radius_distributed(dist_oracle, alpha, Params::practical(), shared_coins);

  ASSERT_TRUE(dist.schedule.all_done);
  ASSERT_EQ(dist.outputs.size(), central.size());
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_EQ(dist.outputs[p], central[p]) << "output mismatch, player " << p;
    EXPECT_EQ(dist_oracle.invocations(p), central_oracle.invocations(p))
        << "probe count mismatch, player " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedEquivalence,
                         ::testing::Values(EqCase{64, 0, 1.0, 1}, EqCase{128, 0, 0.5, 2},
                                           EqCase{256, 0, 0.5, 3}, EqCase{256, 0, 0.25, 4},
                                           EqCase{100, 0, 0.5, 5},  // non-power-of-two
                                           // Non-square: more players, more objects,
                                           // and a small community on few objects.
                                           EqCase{200, 96, 0.5, 6}, EqCase{96, 300, 0.5, 7},
                                           EqCase{300, 37, 0.25, 8}));

TEST(DistributedZeroRadius, CommunityReconstructionCorrect) {
  const std::size_t n = 256;
  rng::Rng gen(11);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      zero_radius_distributed(oracle, 0.5, Params::practical(), rng::Rng(12));
  ASSERT_TRUE(res.schedule.all_done);
  for (auto p : inst.communities[0]) {
    EXPECT_EQ(res.outputs[p], inst.centers[0]);
  }
}

TEST(DistributedZeroRadius, OneProbePerRoundInvariant) {
  // The scheduler enforces it structurally; verify via accounting:
  // probes per player <= rounds executed.
  const std::size_t n = 128;
  rng::Rng gen(13);
  auto inst = matrix::planted_community(n, n, {1.0, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      zero_radius_distributed(oracle, 1.0, Params::practical(), rng::Rng(14));
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_LE(oracle.invocations(p), res.schedule.rounds);
  }
}

TEST(DistributedZeroRadius, WallClockRoundsStayLogarithmicish) {
  // Including the await-idling, the lockstep schedule should still be
  // far below the m rounds of solo probing (the halves work in
  // parallel; awaits cost what the slowest sibling costs).
  const std::size_t n = 1024;
  rng::Rng gen(15);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      zero_radius_distributed(oracle, 0.5, Params::practical(), rng::Rng(16));
  ASSERT_TRUE(res.schedule.all_done);
  EXPECT_LT(res.schedule.rounds, n / 4);
}

TEST(DistributedZeroRadius, StrategyRejectsUnknownSelf) {
  const auto plan = std::make_shared<const ZeroRadiusPlan>(
      std::vector<PlayerId>{0, 1, 2}, std::vector<std::uint32_t>{0, 1, 2}, 2, rng::Rng(1));
  EXPECT_THROW(ZeroRadiusStrategy(7, plan, 1.0, Params::practical()), std::invalid_argument);
}

TEST(DistributedZeroRadius, TinyInstanceIsAllLeaf) {
  // Below the leaf threshold there is no recursion: every player just
  // probes everything and the schedule ends after m rounds.
  const std::size_t n = 8;
  rng::Rng gen(17);
  auto inst = matrix::uniform_random(n, n, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = zero_radius_distributed(oracle, 1.0, Params::practical(), rng::Rng(18));
  ASSERT_TRUE(res.schedule.all_done);
  EXPECT_EQ(res.schedule.rounds, n);  // exactly the m leaf probes
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_EQ(res.outputs[p], inst.matrix.row(p));
  }
}

}  // namespace
}  // namespace tmwia::core
