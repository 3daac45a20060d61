// Tests for the matrix module: the PreferenceMatrix audit helpers and
// every workload generator's advertised structure (community sizes,
// planted diameters, type counts).
#include <gtest/gtest.h>

#include <set>

#include "tmwia/matrix/generators.hpp"
#include "tmwia/matrix/preference_matrix.hpp"

namespace tmwia::matrix {
namespace {

TEST(PreferenceMatrix, ConstructAndAccess) {
  PreferenceMatrix m(3, 5);
  EXPECT_EQ(m.players(), 3u);
  EXPECT_EQ(m.objects(), 5u);
  EXPECT_FALSE(m.value(1, 2));
  m.set_value(1, 2, true);
  EXPECT_TRUE(m.value(1, 2));
  EXPECT_TRUE(m.row(1).get(2));
}

TEST(PreferenceMatrix, FromRowsValidatesShape) {
  std::vector<bits::BitVector> rows{bits::BitVector(4), bits::BitVector(5)};
  EXPECT_THROW(PreferenceMatrix{rows}, std::invalid_argument);
}

TEST(PreferenceMatrix, SubsetDiameter) {
  PreferenceMatrix m(3, 4);
  m.row(0) = bits::BitVector::from_string("0000");
  m.row(1) = bits::BitVector::from_string("0011");
  m.row(2) = bits::BitVector::from_string("1111");
  const std::vector<PlayerId> all{0, 1, 2};
  EXPECT_EQ(m.subset_diameter(all), 4u);
  const std::vector<PlayerId> pair{0, 1};
  EXPECT_EQ(m.subset_diameter(pair), 2u);
}

TEST(PreferenceMatrix, DiscrepancyAndStretch) {
  PreferenceMatrix m(2, 4);
  m.row(0) = bits::BitVector::from_string("0000");
  m.row(1) = bits::BitVector::from_string("0011");
  std::vector<bits::BitVector> out{bits::BitVector::from_string("0001"),
                                   bits::BitVector::from_string("0011")};
  const std::vector<PlayerId> ids{0, 1};
  EXPECT_EQ(m.discrepancy(out, ids), 1u);  // player 0 off by 1
  EXPECT_DOUBLE_EQ(m.stretch(out, ids), 0.5);
}

TEST(PreferenceMatrix, StretchWithZeroDiameter) {
  PreferenceMatrix m(2, 4);
  std::vector<bits::BitVector> exact{bits::BitVector(4), bits::BitVector(4)};
  std::vector<bits::BitVector> off{bits::BitVector::from_string("1000"), bits::BitVector(4)};
  const std::vector<PlayerId> ids{0, 1};
  EXPECT_DOUBLE_EQ(m.stretch(exact, ids), 0.0);
  EXPECT_DOUBLE_EQ(m.stretch(off, ids), 1.0);  // convention: Delta itself
}

// ----------------------------------------------------------------- generators

TEST(Generators, RandomVectorIsBalanced) {
  rng::Rng rng(1);
  const auto v = random_vector(10000, rng);
  EXPECT_NEAR(static_cast<double>(v.count_ones()), 5000.0, 300.0);
}

TEST(Generators, FlipRandomExactCount) {
  rng::Rng rng(2);
  const auto v = random_vector(500, rng);
  for (std::size_t flips : {0u, 1u, 7u, 100u}) {
    const auto w = flip_random(v, flips, rng);
    EXPECT_EQ(v.hamming(w), flips);
  }
  EXPECT_THROW(flip_random(v, 501, rng), std::invalid_argument);
}

TEST(Generators, PlantedCommunitySizeAndDiameter) {
  rng::Rng rng(3);
  const auto inst = planted_community(200, 300, {0.4, 3}, rng);
  ASSERT_EQ(inst.communities.size(), 1u);
  EXPECT_EQ(inst.communities[0].size(), 80u);
  EXPECT_LE(inst.matrix.subset_diameter(inst.communities[0]), 6u);
  // Members are within `radius` of the center.
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(inst.matrix.row(p).hamming(inst.centers[0]), 3u);
  }
  EXPECT_EQ(inst.outsiders().size(), 120u);
}

TEST(Generators, PlantedCommunityZeroRadiusIdenticalRows) {
  rng::Rng rng(4);
  const auto inst = planted_community(50, 64, {0.5, 0}, rng);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(inst.matrix.row(p), inst.centers[0]);
  }
  EXPECT_EQ(inst.matrix.subset_diameter(inst.communities[0]), 0u);
}

TEST(Generators, PlantedCommunitiesDisjoint) {
  rng::Rng rng(5);
  const auto inst =
      planted_communities(100, 128, {{0.3, 1}, {0.3, 2}, {0.2, 0}}, rng);
  ASSERT_EQ(inst.communities.size(), 3u);
  std::set<PlayerId> seen;
  for (const auto& c : inst.communities) {
    for (PlayerId p : c) {
      EXPECT_TRUE(seen.insert(p).second) << "player in two communities";
    }
  }
  EXPECT_EQ(inst.communities[0].size(), 30u);
  EXPECT_EQ(inst.communities[2].size(), 20u);
}

TEST(Generators, PlantedCommunitiesRejectAlphaOverflow) {
  rng::Rng rng(6);
  EXPECT_THROW(planted_communities(100, 128, {{0.7, 0}, {0.5, 0}}, rng),
               std::invalid_argument);
}

TEST(Generators, AdversarialDiversityStructure) {
  rng::Rng rng(7);
  const auto inst = adversarial_diversity(200, 256, 4, 2, 0.2, rng);
  ASSERT_EQ(inst.communities.size(), 4u);
  std::size_t structured = 0;
  for (const auto& c : inst.communities) {
    structured += c.size();
    EXPECT_LE(inst.matrix.subset_diameter(c), 4u);
  }
  EXPECT_EQ(structured, 160u);  // 20% noise
}

TEST(Generators, MarkovTypeModelCoversAllPlayers) {
  rng::Rng rng(8);
  const auto inst = markov_type_model(300, 128, 5, 0.1, rng);
  ASSERT_EQ(inst.communities.size(), 5u);
  std::size_t total = 0;
  for (const auto& c : inst.communities) total += c.size();
  EXPECT_EQ(total, 300u);
  // With p0 = 0.1, players are close to their type's tendency vector:
  // expected distance = 0.1 * 128 = 12.8.
  for (std::size_t t = 0; t < 5; ++t) {
    for (PlayerId p : inst.communities[t]) {
      EXPECT_LE(inst.matrix.row(p).hamming(inst.centers[t]), 35u);
    }
  }
}

TEST(Generators, LowRankModelTinyNoise) {
  rng::Rng rng(9);
  const auto inst = low_rank_model(200, 256, 3, 0.01, rng);
  for (std::size_t t = 0; t < 3; ++t) {
    for (PlayerId p : inst.communities[t]) {
      EXPECT_LE(inst.matrix.row(p).hamming(inst.centers[t]), 15u);
    }
  }
}

TEST(Generators, UniformRandomHasNoCommunities) {
  rng::Rng rng(10);
  const auto inst = uniform_random(50, 512, rng);
  EXPECT_TRUE(inst.communities.empty());
  // Rows are pairwise far (~256).
  EXPECT_GT(inst.matrix.row(0).hamming(inst.matrix.row(1)), 180u);
}

TEST(Generators, DeterministicGivenSeed) {
  rng::Rng r1(99), r2(99);
  const auto a = planted_community(64, 64, {0.5, 2}, r1);
  const auto b = planted_community(64, 64, {0.5, 2}, r2);
  EXPECT_EQ(a.matrix.players(), b.matrix.players());
  for (PlayerId p = 0; p < 64; ++p) {
    EXPECT_EQ(a.matrix.row(p), b.matrix.row(p));
  }
  EXPECT_EQ(a.communities, b.communities);
}

}  // namespace
}  // namespace tmwia::matrix
