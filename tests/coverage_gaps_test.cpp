// Remaining coverage gaps: BitSpace publish/billboard plumbing through
// the higher algorithms, accounting coherence of the driver results,
// pure-explore good-object mode, and small API edges.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <set>
#include <string>

#include "tmwia/core/tmwia.hpp"

namespace tmwia::core {
namespace {

TEST(Plumbing, SmallRadiusPostsNamespacedChannels) {
  const auto run = [](std::size_t n, std::size_t m, std::size_t D, billboard::Billboard& board) {
    rng::Rng gen(n + D);
    auto inst = matrix::planted_community(n, m, {0.5, 1}, gen);
    billboard::ProbeOracle oracle(inst.matrix);
    std::vector<PlayerId> players(n);
    std::iota(players.begin(), players.end(), 0u);
    std::vector<std::uint32_t> objects(m);
    std::iota(objects.begin(), objects.end(), 0u);
    return small_radius(oracle, &board, players, objects, 0.5, D, Params::practical(),
                        rng::Rng(2), n, "sr");
  };
  // 128 players are below the leaf threshold (195 at alpha 0.5 and
  // n = 128), so every part is one Zero Radius leaf, whose outputs are
  // its probe results: nothing is posted.
  billboard::Billboard all_leaf;
  (void)run(128, 128, 2, all_leaf);
  EXPECT_TRUE(all_leaf.export_posts().empty());

  // At n = 256 and D = 1 the two parts of about 256 objects are above
  // the threshold (222 at n = 256). Each (iteration, part) Zero Radius run posts its internal nodes
  // under its own prefix sr/<t>/<i>/zr/<tag>, so nothing collides, and
  // each part's root is internal and posts every player.
  const std::size_t n = 256;
  billboard::Billboard board;
  const auto res = run(n, 512, 1, board);
  std::set<std::string> roots;
  for (const auto& ch : board.export_posts()) {
    std::size_t t = 0, i = 0, tag = 0;
    char tail = 0;
    ASSERT_EQ(std::sscanf(ch.channel.c_str(), "sr/%zu/%zu/zr/%zu%c", &t, &i, &tag, &tail), 3)
        << ch.channel;
    EXPECT_LT(t, res.iterations);
    EXPECT_LT(i, res.parts);
    if (tag == 1) {
      roots.insert(ch.channel);
      EXPECT_EQ(ch.posts.size(), n);
    }
  }
  EXPECT_EQ(roots.size(), res.iterations * res.parts);
}

TEST(Plumbing, LargeRadiusPublishesGroupOutputs) {
  const std::size_t n = 256;
  rng::Rng gen(3);
  auto inst = matrix::planted_community(n, 512, {0.5, 20}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;

  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(512);
  std::iota(objects.begin(), objects.end(), 0u);

  const auto res = large_radius(oracle, &board, players, objects, 0.5, D,
                                Params::practical(), rng::Rng(4));
  // The per-group Small Radius outputs are published on lr/group/<l>.
  std::size_t groups_with_posts = 0;
  for (std::size_t l = 0; l < res.parts; ++l) {
    if (board.posters("lr/group/" + std::to_string(l)) > 0) ++groups_with_posts;
  }
  EXPECT_EQ(groups_with_posts, res.parts);
}

TEST(Accounting, DriverRoundsMatchOracleDeltas) {
  const std::size_t n = 128;
  rng::Rng gen(5);
  auto inst = matrix::planted_community(n, n, {0.5, 1}, gen);
  billboard::ProbeOracle oracle(inst.matrix);

  const auto before_rounds = oracle.max_invocations();
  EXPECT_EQ(before_rounds, 0u);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, 2, Params::practical(), rng::Rng(6));
  EXPECT_EQ(res.rounds, oracle.max_invocations());
  EXPECT_EQ(res.total_probes, oracle.total_invocations());
  EXPECT_GE(res.total_probes, res.rounds);
}

TEST(Accounting, SequentialPhasesReportDeltasNotTotals) {
  const std::size_t n = 128;
  rng::Rng gen(7);
  auto inst = matrix::planted_community(n, n, {1.0, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);

  const auto r1 = find_preferences(oracle, nullptr, 1.0, 0, Params::practical(), rng::Rng(8));
  const auto r2 = find_preferences(oracle, nullptr, 1.0, 0, Params::practical(), rng::Rng(9));
  // Same algorithm, same sizes: the second run's *delta* accounting
  // must not include the first run's probes.
  EXPECT_LT(r2.rounds, 2 * r1.rounds + 8);
  EXPECT_EQ(r1.total_probes + r2.total_probes, oracle.total_invocations());
}

TEST(GoodObjectEdge, PureExploreStillFindsEverything) {
  rng::Rng gen(10);
  matrix::PreferenceMatrix mat(32, 64);
  for (matrix::PlayerId p = 0; p < 32; ++p) mat.set_value(p, 7, true);
  billboard::ProbeOracle oracle(mat);
  GoodObjectParams params;
  params.explore_prob = 1.0;  // never exploit: everyone searches alone
  const auto res = good_object(oracle, params, rng::Rng(11));
  EXPECT_EQ(res.unsatisfied, 0u);
  // Without sharing, the expected cost per player is ~m/2; the total
  // should be visibly worse than the collaborative default (see E12).
  EXPECT_GT(res.total_probes, 32u * 8u);
}

TEST(ApiEdges, StretchOfOutsidersIsFiniteAndLarge) {
  rng::Rng gen(12);
  auto inst = matrix::planted_community(64, 128, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, 0, Params::practical(), rng::Rng(13));
  // Outsiders have no community; their "stretch" against the outsider
  // set (huge diameter) is small even when errors are large — the
  // guarantee's relativity in action.
  const auto outsiders = inst.outsiders();
  ASSERT_GT(outsiders.size(), 1u);
  const auto diam = inst.matrix.subset_diameter(outsiders);
  EXPECT_GT(diam, 30u);  // random vectors are far apart
  EXPECT_LT(inst.matrix.stretch(res.outputs, outsiders), 3.0);
}

TEST(ApiEdges, UnknownDRunsOnUniformNoiseWithoutCrashing) {
  // No structure at all: the algorithm must still terminate and return
  // full-length outputs (quality is whatever the billboard affords).
  rng::Rng gen(14);
  auto inst = matrix::uniform_random(64, 64, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences_unknown_d(oracle, nullptr, 0.5, Params::practical(), rng::Rng(15));
  ASSERT_EQ(res.outputs.size(), 64u);
  for (const auto& v : res.outputs) EXPECT_EQ(v.size(), 64u);
}

TEST(ApiEdges, AnytimeWithTinyBudgetStopsAfterOnePhase) {
  rng::Rng gen(16);
  auto inst = matrix::planted_community(64, 64, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = anytime(oracle, nullptr, /*round_budget=*/1, Params::practical(),
                           rng::Rng(17));
  EXPECT_EQ(res.phases.size(), 1u);
}

}  // namespace
}  // namespace tmwia::core
