// End-to-end tests for the main algorithm (Fig. 1), the unknown-D
// search and the anytime driver (Section 6) — i.e. Theorem 1.1: after
// polylog rounds every typical player has constant-stretch output.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/large_radius.hpp"
#include "tmwia/core/session.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"

namespace tmwia::core {
namespace {

// Four pool workers in every test process, so the Large Radius guesses
// with at least four groups run them as pool tasks.
const bool kPoolSized = engine::set_global_threads(4);

TEST(FindPreferences, DispatchZeroRadius) {
  rng::Rng gen(1);
  auto inst = matrix::planted_community(128, 128, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, 0, Params::practical(), rng::Rng(2));
  EXPECT_EQ(res.branch, Branch::kZeroRadius);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(res.outputs[p], inst.centers[0]);
  }
  EXPECT_GT(res.rounds, 0u);
  EXPECT_GT(res.total_probes, 0u);
}

TEST(FindPreferences, DispatchSmallRadius) {
  rng::Rng gen(3);
  auto inst = matrix::planted_community(256, 256, {0.5, 2}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, 4, Params::practical(), rng::Rng(4));
  EXPECT_EQ(res.branch, Branch::kSmallRadius);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_LE(res.outputs[p].hamming(inst.matrix.row(p)), 20u);
  }
}

TEST(FindPreferences, DispatchLargeRadius) {
  rng::Rng gen(5);
  auto inst = matrix::planted_community(256, 512, {0.5, 24}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);
  ASSERT_GT(D, 8u);  // must exceed the small-radius cutoff at n = 256
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, D, Params::practical(), rng::Rng(6));
  EXPECT_EQ(res.branch, Branch::kLargeRadius);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_LE(res.outputs[p].hamming(inst.matrix.row(p)), 4 * D);
  }
}

struct UnknownDCase {
  std::size_t n;
  std::size_t m;
  double alpha;
  std::size_t radius;
  double stretch_bound;
  std::uint64_t seed;
};

class UnknownD : public ::testing::TestWithParam<UnknownDCase> {};

TEST_P(UnknownD, ConstantStretchWithoutKnowingD) {
  const auto [n, m, alpha, radius, stretch_bound, seed] = GetParam();
  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, m, {alpha, radius}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences_unknown_d(oracle, nullptr, alpha, Params::practical(), rng::Rng(seed));

  ASSERT_EQ(res.outputs.size(), n);
  const double stretch = inst.matrix.stretch(res.outputs, inst.communities[0]);
  EXPECT_LE(stretch, stretch_bound)
      << "discrepancy " << inst.matrix.discrepancy(res.outputs, inst.communities[0])
      << " over diameter " << D;
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnknownD,
                         ::testing::Values(UnknownDCase{128, 128, 0.5, 2, 6.0, 201},
                                           UnknownDCase{256, 256, 0.5, 4, 6.0, 202},
                                           UnknownDCase{256, 256, 0.5, 16, 6.0, 203},
                                           UnknownDCase{256, 512, 0.25, 8, 8.0, 204}));

TEST(UnknownDDetail, GuessesAreGeometric) {
  rng::Rng gen(7);
  auto inst = matrix::planted_community(64, 64, {1.0, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences_unknown_d(oracle, nullptr, 1.0, Params::practical(), rng::Rng(8));
  ASSERT_GE(res.guesses.size(), 3u);
  EXPECT_EQ(res.guesses[0], 0u);
  EXPECT_EQ(res.guesses[1], 1u);
  for (std::size_t i = 2; i < res.guesses.size(); ++i) {
    EXPECT_EQ(res.guesses[i], res.guesses[i - 1] * 2);
  }
  EXPECT_LT(res.guesses.back(), 64u);
}

TEST(UnknownDDetail, ChosenDRecorded) {
  rng::Rng gen(9);
  auto inst = matrix::planted_community(128, 128, {1.0, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences_unknown_d(oracle, nullptr, 1.0, Params::practical(), rng::Rng(10));
  ASSERT_EQ(res.chosen_d.size(), 128u);
  // With an exact-agreement community, the D = 0 version is already
  // perfect, so the chosen D should be small for community members.
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(res.outputs[p], inst.centers[0]);
  }
}

TEST(Anytime, PhasesProgressAndRespectBudget) {
  rng::Rng gen(11);
  auto inst = matrix::planted_community(128, 128, {0.5, 2}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = anytime(oracle, nullptr, /*round_budget=*/2000, Params::practical(),
                           rng::Rng(12));
  ASSERT_FALSE(res.phases.empty());
  // Phases run alpha = 1/2, 1/4, ... and cumulative cost increases.
  EXPECT_DOUBLE_EQ(res.phases[0].alpha, 0.5);
  for (std::size_t i = 1; i < res.phases.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.phases[i].alpha, res.phases[i - 1].alpha / 2);
    EXPECT_GE(res.phases[i].rounds, res.phases[i - 1].rounds);
  }
}

TEST(Anytime, QualityReasonableAfterEnoughPhases) {
  rng::Rng gen(13);
  auto inst = matrix::planted_community(128, 128, {0.5, 2}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      anytime(oracle, nullptr, /*round_budget=*/100000, Params::practical(), rng::Rng(14));
  const auto disc = inst.matrix.discrepancy(res.outputs, inst.communities[0]);
  EXPECT_LE(disc, 6 * std::max<std::size_t>(D, 1));
}

TEST(FindPreferences, RoundsPolylogWhileSoloIsLinear) {
  // Theorem 1.1 shape at a fixed size: the whole unknown-D stack costs
  // far fewer rounds than the m rounds of solo probing.
  const std::size_t n = 1024;
  rng::Rng gen(15);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, 0, Params::practical(), rng::Rng(16));
  EXPECT_LT(res.rounds, n / 8);
}

/// alpha outside (0, 1], NaN included, is refused before the first
/// probe by every entry point that takes it.
TEST(FindPreferences, RejectsAlphaOutsideUnitIntervalBeforeProbing) {
  rng::Rng gen(17);
  const auto inst = matrix::planted_community(32, 32, {0.5, 0}, gen);
  std::vector<PlayerId> players(32);
  std::iota(players.begin(), players.end(), 0u);
  const std::vector<std::uint32_t> objects(players.begin(), players.end());
  const auto params = Params::practical();
  for (const double alpha : {0.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    billboard::ProbeOracle oracle(inst.matrix);
    EXPECT_THROW(find_preferences(oracle, nullptr, alpha, 0, params, rng::Rng(1)),
                 std::invalid_argument);
    EXPECT_THROW(find_preferences_unknown_d(oracle, nullptr, alpha, params, rng::Rng(1)),
                 std::invalid_argument);
    EXPECT_THROW(small_radius(oracle, nullptr, players, objects, alpha, 2, params, rng::Rng(1),
                              32, "sr"),
                 std::invalid_argument);
    EXPECT_THROW(large_radius(oracle, nullptr, {}, objects, alpha, 32, params, rng::Rng(1)),
                 std::invalid_argument);
    EXPECT_EQ(oracle.total_invocations(), 0u) << alpha;

    Session session(inst.matrix);
    session.alpha(alpha);
    EXPECT_THROW((void)session.run(), std::invalid_argument);
  }
}

/// A tiny alpha inside (0, 1] is valid. The counts derived from 1/alpha
/// (the Zero Radius leaf threshold, Large Radius's per-player group
/// count) clamp at 2^63 instead of overflowing size_t, so every node
/// is a leaf and every player joins every group.
TEST(FindPreferences, TinyAlphaClampsCountsAndCompletes) {
  constexpr double kTiny = 1e-300;
  constexpr std::size_t kClamp = std::size_t{1} << 63;
  const auto params = Params::practical();
  EXPECT_EQ(ceil_count(2.5), 3u);
  EXPECT_EQ(ceil_count(1e301), kClamp);
  EXPECT_EQ(zero_radius_leaf_threshold(64, kTiny, params), kClamp);

  rng::Rng gen(19);
  const auto inst = matrix::planted_community(64, 64, {0.5, 2}, gen);
  for (const std::size_t D : {0u, 2u, 32u}) {
    billboard::ProbeOracle oracle(inst.matrix);
    const auto res = find_preferences(oracle, nullptr, kTiny, D, params, rng::Rng(20));
    ASSERT_EQ(res.outputs.size(), 64u) << D;
  }
  {
    // Zero Radius with every node a leaf probes everything: exact.
    billboard::ProbeOracle oracle(inst.matrix);
    const auto res = find_preferences(oracle, nullptr, kTiny, 0, params, rng::Rng(20));
    for (PlayerId p = 0; p < 64; ++p) EXPECT_EQ(res.outputs[p], inst.matrix.row(p)) << p;
  }
  {
    std::vector<PlayerId> players(64);
    std::iota(players.begin(), players.end(), 0u);
    const std::vector<std::uint32_t> objects(players.begin(), players.end());
    billboard::ProbeOracle oracle(inst.matrix);
    const auto res =
        large_radius(oracle, nullptr, players, objects, kTiny, 32, params, rng::Rng(21));
    EXPECT_GT(res.parts, 1u);
    EXPECT_EQ(res.player_copies, res.parts);
  }
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = find_preferences_unknown_d(oracle, nullptr, kTiny, params, rng::Rng(22));
  EXPECT_EQ(res.outputs.size(), 64u);
}

// The unknown-D search at n = 256 runs Large Radius with 4, 8 and 16
// groups (d = 32, 64, 128; up to 4 groups per player). Its groups run
// as pool tasks, and the run leaves what the serial run leaves: a
// flight recorder keeps the groups on the caller for the reference.
TEST(ConcurrentGroups, UnknownDMatchesTheSerialRun) {
  ASSERT_TRUE(kPoolSized);
  rng::Rng gen(43);
  const auto inst = matrix::planted_communities(256, 256, {{0.25, 8}, {0.25, 32}}, gen);
  struct Run {
    RunReport report;
    obs::Snapshot metrics;
    billboard::ProbeOracle::Ledger ledger;
    std::vector<billboard::Billboard::ChannelDump> posts;
  };
  const auto run = [&](bool serial) {
    auto& reg = obs::MetricsRegistry::global();
    reg.reset();
    reg.set_enabled(true);
    billboard::ProbeOracle oracle(inst.matrix);
    billboard::Billboard board;
    std::ostringstream log;
    obs::FlightRecorder rec(log);
    if (serial) oracle.set_recorder(&rec);
    Run r;
    r.report =
        find_preferences_unknown_d(oracle, &board, 0.25, Params::practical(), rng::Rng(44));
    r.metrics = reg.snapshot();
    r.ledger = oracle.export_ledger();
    r.posts = board.export_posts();
    reg.set_enabled(false);
    return r;
  };
  const auto pooled = run(false);
  const auto serial = run(true);
  EXPECT_TRUE(pooled.report.outputs == serial.report.outputs);
  EXPECT_EQ(pooled.report.to_json(), serial.report.to_json());
  EXPECT_EQ(pooled.metrics.to_json(), serial.metrics.to_json());
  EXPECT_TRUE(pooled.ledger.invocations == serial.ledger.invocations);
  EXPECT_TRUE(pooled.ledger.charged == serial.ledger.charged);
  EXPECT_TRUE(pooled.ledger.probed == serial.ledger.probed);
  EXPECT_TRUE(pooled.ledger.values == serial.ledger.values);
  ASSERT_EQ(pooled.posts.size(), serial.posts.size());
  for (std::size_t i = 0; i < pooled.posts.size(); ++i) {
    EXPECT_EQ(pooled.posts[i].channel, serial.posts[i].channel);
    EXPECT_TRUE(pooled.posts[i].posts == serial.posts[i].posts) << pooled.posts[i].channel;
  }
}

}  // namespace
}  // namespace tmwia::core
