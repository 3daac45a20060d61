// Integration tests for Algorithm Zero Radius (Fig. 2 / Theorem 3.1):
// correctness for planted identical-preference communities and the
// O(log n / alpha) per-player probe bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/faults/fault_plan.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/partition.hpp"

namespace tmwia::core {
namespace {

std::vector<PlayerId> iota_players(std::size_t n) {
  std::vector<PlayerId> p(n);
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

std::vector<std::uint32_t> iota_objects(std::size_t m) {
  std::vector<std::uint32_t> o(m);
  std::iota(o.begin(), o.end(), 0u);
  return o;
}

// The halving at one internal node: positions `pos` of the two children
// are ascending, partition 0..ids.size()-1 into halves whose sizes
// differ by at most 1, and each child lists the ids at its positions.
template <typename Id>
void expect_halves(const std::vector<Id>& ids,
                   const std::array<std::vector<std::uint32_t>, 2>& pos,
                   const std::vector<Id>& kid0, const std::vector<Id>& kid1) {
  const std::vector<Id>* kids[2] = {&kid0, &kid1};
  std::vector<std::uint32_t> all;
  for (std::size_t h = 0; h < 2; ++h) {
    EXPECT_EQ(std::adjacent_find(pos[h].begin(), pos[h].end(), std::greater_equal<>()),
              pos[h].end());
    ASSERT_EQ(kids[h]->size(), pos[h].size());
    for (std::size_t i = 0; i < pos[h].size(); ++i) EXPECT_EQ((*kids[h])[i], ids[pos[h][i]]);
    all.insert(all.end(), pos[h].begin(), pos[h].end());
  }
  EXPECT_LE(std::max(pos[0].size(), pos[1].size()) - std::min(pos[0].size(), pos[1].size()), 1u);
  std::sort(all.begin(), all.end());
  std::vector<std::uint32_t> expected(ids.size());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(all, expected);
}

// Checks the subtree under `node` and returns its number of players
// summed over leaves. Node t's coins are rng.split(t, 0x5eed), players
// first: the tree every earlier run, log and checkpoint was made with.
std::size_t expect_plan_subtree(const ZeroRadiusPlan& plan, const ZeroRadiusPlan::Node& node,
                                std::size_t threshold, const rng::Rng& rng) {
  SCOPED_TRACE("node " + std::to_string(node.tag));
  EXPECT_EQ(node.leaf(), std::min(node.players.size(), node.objects.size()) < threshold);
  if (node.leaf()) return node.players.size();
  rng::Rng coins = rng.split(node.tag, 0x5eed);
  const auto player_halves = rng::random_half_split(iota_objects(node.players.size()), coins);
  const auto object_halves = rng::random_half_split(iota_objects(node.objects.size()), coins);
  EXPECT_EQ(node.player_pos[0], player_halves.first);
  EXPECT_EQ(node.object_pos[0], object_halves.first);
  const auto& kid0 = plan.child(node, 0);
  const auto& kid1 = plan.child(node, 1);
  EXPECT_EQ(kid0.tag, 2 * node.tag + 1);
  EXPECT_EQ(kid1.tag, 2 * node.tag + 2);
  expect_halves(node.players, node.player_pos, kid0.players, kid1.players);
  expect_halves(node.objects, node.object_pos, kid0.objects, kid1.objects);
  return expect_plan_subtree(plan, kid0, threshold, rng) +
         expect_plan_subtree(plan, kid1, threshold, rng);
}

TEST(ZeroRadiusPlan, ChildrenHalveEveryInternalNode) {
  struct Shape {
    std::size_t n, m, threshold;
  };
  for (const auto [n, m, threshold] :
       {Shape{200, 96, 10}, Shape{96, 300, 12}, Shape{300, 37, 5}, Shape{101, 101, 2},
        Shape{8, 8, 9}}) {
    SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(m));
    // Non-contiguous, unsorted ids: positions, not ids, drive the split.
    std::vector<PlayerId> players(n);
    for (std::size_t i = 0; i < n; ++i) players[i] = static_cast<PlayerId>((7 * i + 3) % (2 * n));
    std::vector<std::uint32_t> objects(m);
    for (std::size_t j = 0; j < m; ++j) objects[j] = static_cast<std::uint32_t>(m - 1 - j);
    const rng::Rng coins(n * 31 + m);
    const ZeroRadiusPlan plan(players, objects, threshold, coins);
    EXPECT_EQ(plan.root().tag, 1u);
    EXPECT_EQ(plan.root().players, players);
    EXPECT_EQ(plan.root().objects, objects);
    EXPECT_EQ(expect_plan_subtree(plan, plan.root(), threshold, coins), n);
  }
}

TEST(ZeroRadiusPlan, RejectsThresholdThatNeverBottomsOut) {
  EXPECT_THROW(ZeroRadiusPlan({0, 1}, {0, 1}, 1, rng::Rng(1)), std::invalid_argument);
}

struct ZrCase {
  std::size_t n;
  double alpha;
  std::uint64_t seed;
};

class ZeroRadiusCorrectness : public ::testing::TestWithParam<ZrCase> {};

TEST_P(ZeroRadiusCorrectness, CommunityMembersOutputExactVector) {
  const auto [n, alpha, seed] = GetParam();
  const std::size_t m = n;
  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, m, {alpha, 0}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  const auto outputs =
      zero_radius_bits(oracle, &board, iota_players(n), iota_objects(m), alpha,
                       Params::practical(), rng::Rng(seed ^ 0xf00));

  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(outputs[p], inst.centers[0]) << "player " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZeroRadiusCorrectness,
                         ::testing::Values(ZrCase{64, 1.0, 1}, ZrCase{128, 0.5, 2},
                                           ZrCase{256, 0.5, 3}, ZrCase{256, 0.25, 4},
                                           ZrCase{512, 0.25, 5}, ZrCase{512, 0.125, 6}));

TEST(ZeroRadius, ProbeCostLogarithmicPerPlayer) {
  // Theorem 3.1: O(log n / alpha) probes per player. Verify against the
  // explicit form c * (leaf_threshold + log2(n) * vote_candidates),
  // which is what the recursion costs with our practical constants.
  const std::size_t n = 1024;
  const double alpha = 0.5;
  rng::Rng gen(77);
  auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto params = Params::practical();
  (void)zero_radius_bits(oracle, nullptr, iota_players(n), iota_objects(n), alpha, params,
                         rng::Rng(78));

  const double log_n = std::log2(static_cast<double>(n));
  const double leaf = static_cast<double>(zero_radius_leaf_threshold(n, alpha, params));
  // leaf probes + per-level Select(<=2/alpha candidates, D=0) probing at
  // most one distinguishing coordinate per eliminated candidate, over
  // log2 n levels; factor 4 headroom.
  const double bound = 4.0 * (leaf + log_n * 2.0 / alpha);
  EXPECT_LT(static_cast<double>(oracle.max_invocations()), bound);
}

TEST(ZeroRadius, MuchCheaperThanSoloForLargeN) {
  const std::size_t n = 2048;
  const double alpha = 0.5;
  rng::Rng gen(99);
  auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  (void)zero_radius_bits(oracle, nullptr, iota_players(n), iota_objects(n), alpha,
                         Params::practical(), rng::Rng(100));
  // Solo probing costs m = 2048 rounds; the collaborative algorithm
  // should be at least 10x cheaper per player at this size.
  EXPECT_LT(oracle.max_invocations(), n / 10);
}

TEST(ZeroRadius, LeafCaseProbesEverythingAndIsExact) {
  // Tiny instance: below the leaf threshold everyone probes all
  // objects, so every player (typical or not) is exact.
  const std::size_t n = 8;
  rng::Rng gen(5);
  auto inst = matrix::uniform_random(n, n, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto outputs = zero_radius_bits(oracle, nullptr, iota_players(n), iota_objects(n), 0.5,
                                        Params::practical(), rng::Rng(6));
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_EQ(outputs[p], inst.matrix.row(p));
  }
}

TEST(ZeroRadius, SubsetOfPlayersAndObjects) {
  // The algorithm must work on arbitrary player/object subsets (Small
  // Radius calls it per part).
  const std::size_t n = 300;
  const std::size_t m = 400;
  rng::Rng gen(7);
  auto inst = matrix::planted_community(n, m, {0.6, 0}, gen);

  // Take a subset of objects and the community players plus noise.
  std::vector<std::uint32_t> objects;
  for (std::uint32_t o = 10; o < 200; o += 3) objects.push_back(o);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto players = iota_players(n);
  const auto outputs = zero_radius_bits(oracle, nullptr, players, objects, 0.6,
                                        Params::practical(), rng::Rng(8));

  const auto expected = inst.centers[0].project(objects);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(outputs[p], expected);
  }
}

TEST(ZeroRadius, DeterministicGivenSeed) {
  const std::size_t n = 128;
  rng::Rng gen(123);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);

  billboard::ProbeOracle o1(inst.matrix);
  billboard::ProbeOracle o2(inst.matrix);
  const auto r1 = zero_radius_bits(o1, nullptr, iota_players(n), iota_objects(n), 0.5,
                                   Params::practical(), rng::Rng(9));
  const auto r2 = zero_radius_bits(o2, nullptr, iota_players(n), iota_objects(n), 0.5,
                                   Params::practical(), rng::Rng(9));
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(o1.total_invocations(), o2.total_invocations());
}

/// Every node of `plan`, breadth-first from the root.
std::vector<const ZeroRadiusPlan::Node*> plan_nodes(const ZeroRadiusPlan& plan) {
  std::vector<const ZeroRadiusPlan::Node*> nodes{&plan.root()};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->leaf()) continue;
    nodes.push_back(&plan.child(*nodes[i], 0));
    nodes.push_back(&plan.child(*nodes[i], 1));
  }
  return nodes;
}

/// A 512 x 512 planted instance whose Zero Radius tree at alpha 0.25
/// (leaf threshold 100) has three levels of internal nodes above its
/// 64-player leaves.
struct PostCase {
  static constexpr std::size_t n = 512;
  static constexpr double alpha = 0.25;
  matrix::Instance inst = [] {
    rng::Rng gen(61);
    return matrix::planted_community(n, n, {alpha, 0}, gen);
  }();
  Params params = Params::practical();
  rng::Rng coins{62};
  ZeroRadiusPlan plan{iota_players(n), iota_objects(n),
                      zero_radius_leaf_threshold(n, alpha, params), coins};

  std::vector<bits::BitVector> run(billboard::ProbeOracle& oracle, billboard::Billboard& board) {
    return zero_radius_bits(oracle, &board, iota_players(n), iota_objects(n), alpha, params,
                            coins, "t");
  }
};

// A leaf's outputs are its players' probe results, which the oracle
// already holds, so only internal nodes post. A player's row at a node
// is its final row on the node's objects: every node copies its own
// half's rows through unchanged.
TEST(ZeroRadius, PostsExactlyTheInternalNodesOutputs) {
  PostCase c;
  billboard::ProbeOracle oracle(c.inst.matrix);
  billboard::Billboard board;
  const auto outputs = c.run(oracle, board);

  std::vector<billboard::Billboard::ChannelDump> expected;
  std::size_t leaves = 0;
  for (const auto* node : plan_nodes(c.plan)) {
    if (node->leaf()) {
      ++leaves;
      continue;
    }
    auto& dump = expected.emplace_back();
    dump.channel = "t/zr/" + std::to_string(node->tag);
    for (const PlayerId p : node->players) {
      dump.posts.emplace_back(p, outputs[p].project(node->objects));
    }
    std::sort(dump.posts.begin(), dump.posts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) { return a.channel < b.channel; });
  EXPECT_EQ(leaves, 8u);
  EXPECT_EQ(expected.size(), 7u);
  EXPECT_TRUE(board.export_posts() == expected);
}

// Under post loss a leaf still loses posts, though it writes none: the
// fault report counts every (node, surviving player) pair whose
// post_lost draw is true, leaves included, and an internal node's
// channel holds exactly its players whose draw is false.
TEST(ZeroRadius, PostLossCountsLeafDraws) {
  PostCase c;
  billboard::ProbeOracle oracle(c.inst.matrix);
  billboard::Billboard board;
  faults::FaultInjector injector(faults::FaultPlan::parse("seed=3,drop=0.2"), PostCase::n);
  oracle.set_fault_injector(&injector);
  (void)c.run(oracle, board);

  std::uint64_t lost = 0;
  std::uint64_t lost_at_leaves = 0;
  for (const auto* node : plan_nodes(c.plan)) {
    const std::string channel = "t/zr/" + std::to_string(node->tag);
    const auto tag = faults::FaultInjector::channel_tag(channel);
    std::size_t kept = 0;
    for (const PlayerId p : node->players) {
      if (injector.is_failed(p)) continue;
      if (!injector.post_lost(p, tag)) {
        ++kept;
        continue;
      }
      ++lost;
      if (node->leaf()) ++lost_at_leaves;
    }
    EXPECT_EQ(board.posters(channel), node->leaf() ? 0 : kept) << channel;
  }
  EXPECT_GT(lost_at_leaves, 0u);
  EXPECT_GT(lost, lost_at_leaves);
  EXPECT_EQ(injector.report().posts_dropped, lost);
}

TEST(ZeroRadius, PostsAppearOnBillboard) {
  const std::size_t n = 64;
  rng::Rng gen(55);
  auto inst = matrix::planted_community(n, n, {1.0, 0}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  (void)zero_radius_bits(oracle, &board, iota_players(n), iota_objects(n), 1.0,
                         Params::practical(), rng::Rng(56), "t");
  EXPECT_FALSE(board.export_posts().empty());
}

}  // namespace
}  // namespace tmwia::core
