// Cross-cutting property and differential tests:
//  * Select vs a brute-force oracle on TriVector candidates (random ?
//    patterns) — the Theorem 3.2 exactness under the bound;
//  * Coalesce structural invariants under fuzzed inputs;
//  * Zero Radius over a *custom* value space (4-valued), the genericity
//    Large Radius's virtual objects depend on;
//  * drift() preserving planted structure;
//  * the paper-constants profile staying correct (its costs degenerate
//    to probe-everything at small n, its guarantees must not).
#include <gtest/gtest.h>

#include <numeric>

#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::core {
namespace {

using bits::BitVector;
using bits::Tri;
using bits::TriVector;

TriVector random_tri(std::size_t m, double unknown_prob, rng::Rng& rng) {
  TriVector t(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.bernoulli(unknown_prob)) {
      t.set(i, Tri::kUnknown);
    } else {
      t.set(i, (rng.next() >> 63) != 0 ? Tri::kOne : Tri::kZero);
    }
  }
  return t;
}

class SelectDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectDifferential, MatchesBruteForceClosestUnderBound) {
  rng::Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 64 + rng.uniform(128);
    const std::size_t k = 2 + rng.uniform(10);
    const std::size_t D = rng.uniform(12);
    const auto truth = matrix::random_vector(m, rng);

    std::vector<TriVector> cands;
    // Planted candidate within D under dtilde: copy the truth, flip at
    // most D coordinates, replace some others with '?'.
    {
      TriVector planted = TriVector::from_bits(matrix::flip_random(truth, rng.uniform(D + 1), rng));
      for (std::size_t i = 0; i < m; ++i) {
        if (rng.bernoulli(0.1) && planted.get(i) != Tri::kUnknown &&
            planted.get(i) == (truth.get(i) ? Tri::kOne : Tri::kZero)) {
          planted.set(i, Tri::kUnknown);  // only erase agreements: dtilde intact
        }
      }
      cands.push_back(std::move(planted));
    }
    for (std::size_t i = 1; i < k; ++i) {
      cands.push_back(random_tri(m, 0.15, rng));
    }

    const auto res = select_closest(cands, D, [&](std::uint32_t j) { return truth.get(j); });

    std::size_t best = m + 1;
    for (const auto& c : cands) best = std::min(best, c.dtilde(truth));
    ASSERT_LE(best, D);
    EXPECT_EQ(cands[res.index].dtilde(truth), best) << "trial " << trial;
    EXPECT_LE(res.probes, k * (D + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectDifferential, ::testing::Values(101u, 202u, 303u, 404u));

class CoalesceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoalesceFuzz, StructuralInvariantsHold) {
  rng::Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t m = 64 + rng.uniform(64);
    const std::size_t n = 20 + rng.uniform(60);
    const std::size_t D = 1 + rng.uniform(10);
    const std::size_t min_ball = 2 + rng.uniform(n / 3);

    std::vector<BitVector> vs;
    // A few random cluster seeds with varying populations + loose noise.
    const std::size_t clusters = 1 + rng.uniform(4);
    std::vector<BitVector> seeds;
    for (std::size_t c = 0; c < clusters; ++c) {
      seeds.push_back(matrix::random_vector(m, rng));
    }
    while (vs.size() < n) {
      if (rng.bernoulli(0.7)) {
        const auto& s = seeds[rng.uniform(seeds.size())];
        vs.push_back(matrix::flip_random(s, rng.uniform(D + 1), rng));
      } else {
        vs.push_back(matrix::random_vector(m, rng));
      }
    }

    const auto res = coalesce(vs, D, min_ball);

    // Invariant 1: candidate count bounded by how many disjoint balls
    // of >= min_ball vectors can fit.
    EXPECT_LE(res.candidates.size(), n / min_ball + 1);
    EXPECT_LE(res.candidates.size(), res.pre_merge_count);

    // Invariant 2: pairwise dtilde of outputs exceeds the merge bound.
    for (std::size_t i = 0; i < res.candidates.size(); ++i) {
      for (std::size_t j = i + 1; j < res.candidates.size(); ++j) {
        EXPECT_GT(res.candidates[i].dtilde(res.candidates[j]), 5 * D);
      }
    }

    // Invariant 3: determinism.
    const auto res2 = coalesce(vs, D, min_ball);
    EXPECT_EQ(res.candidates, res2.candidates);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceFuzz, ::testing::Values(11u, 22u, 33u));

// --- Zero Radius over a custom 4-valued space -----------------------------

/// A space whose objects carry values in {0,1,2,3}: grades per (player,
/// object) from a fixed table, probes counted per player. Exercises the
/// genericity Large Radius's virtual objects rely on.
struct QuadSpace {
  using Value = std::uint8_t;

  std::vector<std::vector<Value>> table;  // player x object
  std::vector<std::size_t> probes;

  Value probe(PlayerId p, std::uint32_t o) {
    ++probes[p];
    return table[p][o];
  }
};

TEST(ZeroRadiusGeneric, FourValuedSpaceReconstructsCommunity) {
  const std::size_t n = 128;
  const std::size_t m = 128;
  rng::Rng rng(77);

  QuadSpace space;
  space.probes.assign(n, 0);
  space.table.assign(n, std::vector<std::uint8_t>(m));
  // Half the players share one 4-valued row; the rest are random.
  std::vector<std::uint8_t> shared(m);
  for (auto& v : shared) v = static_cast<std::uint8_t>(rng.uniform(4));
  for (std::size_t p = 0; p < n; ++p) {
    if (p % 2 == 0) {
      space.table[p] = shared;
    } else {
      for (auto& v : space.table[p]) v = static_cast<std::uint8_t>(rng.uniform(4));
    }
  }

  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(m);
  std::iota(objects.begin(), objects.end(), 0u);

  const auto out =
      zero_radius(space, players, objects, 0.5, Params::practical(), rng::Rng(78), n);
  for (std::size_t p = 0; p < n; p += 2) {
    EXPECT_EQ(out[p], shared) << "player " << p;
  }
  // Cost is shared: members probe far fewer than m objects.
  std::size_t max_probes = 0;
  for (std::size_t p = 0; p < n; ++p) max_probes = std::max(max_probes, space.probes[p]);
  EXPECT_LT(max_probes, m);
}

// --- drift() ----------------------------------------------------------------

TEST(Drift, BlockDriftPreservesDiameter) {
  rng::Rng rng(91);
  auto inst = matrix::planted_community(64, 128, {0.5, 2}, rng);
  const auto before = inst.matrix.subset_diameter(inst.communities[0]);
  matrix::drift(inst, 10, 0, rng);
  EXPECT_EQ(inst.matrix.subset_diameter(inst.communities[0]), before);
  // Members moved with the center.
  for (auto p : inst.communities[0]) {
    EXPECT_LE(inst.matrix.row(p).hamming(inst.centers[0]), 2u);
  }
}

TEST(Drift, JitterGrowsDiameterBoundedly) {
  rng::Rng rng(92);
  auto inst = matrix::planted_community(64, 128, {0.5, 0}, rng);
  matrix::drift(inst, 0, 3, rng);
  const auto d = inst.matrix.subset_diameter(inst.communities[0]);
  EXPECT_GT(d, 0u);
  EXPECT_LE(d, 6u);  // 2 * player_flips
}

TEST(Drift, CenterActuallyMoves) {
  rng::Rng rng(93);
  auto inst = matrix::planted_community(32, 64, {1.0, 0}, rng);
  const auto before = inst.centers[0];
  matrix::drift(inst, 8, 0, rng);
  EXPECT_EQ(inst.centers[0].hamming(before), 8u);
}

// --- the paper-constants profile ----------------------------------------

TEST(PaperProfile, ZeroRadiusStillExactJustExpensive) {
  const std::size_t n = 256;
  rng::Rng gen(95);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(n);
  std::iota(objects.begin(), objects.end(), 0u);

  const auto out = zero_radius_bits(oracle, nullptr, players, objects, 0.5,
                                    Params::paper(), rng::Rng(96));
  for (auto p : inst.communities[0]) {
    EXPECT_EQ(out[p], inst.centers[0]);
  }
  // The paper leaf threshold 8c ln n / alpha ~ 89 stops the recursion
  // two levels down: leaves of ~64 objects, i.e. each player pays about
  // a quarter of m — safe constants, little sharing at this size.
  const auto leaf = zero_radius_leaf_threshold(n, 0.5, Params::paper());
  EXPECT_GE(oracle.max_invocations(), leaf / 2);
  EXPECT_LE(oracle.max_invocations(), n);
}

}  // namespace
}  // namespace tmwia::core
