// Tests for the sticky probe-noise model and the algorithms' behaviour
// under it. Sticky noise effectively perturbs each player's vector (an
// (alpha, D) community becomes an (alpha, D + ~2*eps*m) community), so
// the distance-bounded machinery absorbs it.
#include <gtest/gtest.h>

#include <numeric>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::billboard {
namespace {

matrix::PreferenceMatrix zeros(std::size_t n, std::size_t m) {
  return matrix::PreferenceMatrix(n, m);
}

TEST(Noise, NoneIsExact) {
  const auto mat = zeros(4, 64);
  ProbeOracle o(mat);
  for (ObjectId j = 0; j < 64; ++j) EXPECT_FALSE(o.probe(0, j));
}

TEST(Noise, StickyFlipsApproxEpsilonFraction) {
  const auto mat = zeros(8, 4096);
  ProbeOracle o(mat, NoiseModel::sticky(0.1, 99));
  std::size_t flips = 0;
  for (ObjectId j = 0; j < 4096; ++j) {
    if (o.probe(3, j)) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / 4096.0, 0.1, 0.02);
}

TEST(Noise, StickyIsConsistentAcrossReprobes) {
  const auto mat = zeros(2, 512);
  ProbeOracle o(mat, NoiseModel::sticky(0.3, 7));
  std::vector<bool> first;
  for (ObjectId j = 0; j < 512; ++j) first.push_back(o.probe(0, j));
  for (ObjectId j = 0; j < 512; ++j) {
    EXPECT_EQ(o.probe(0, j), first[j]) << "object " << j;
  }
}

TEST(Noise, StickyDiffersAcrossPlayers) {
  const auto mat = zeros(2, 2048);
  ProbeOracle o(mat, NoiseModel::sticky(0.2, 7));
  std::size_t differ = 0;
  for (ObjectId j = 0; j < 2048; ++j) {
    if (o.probe(0, j) != o.probe(1, j)) ++differ;
  }
  // Independent 20% flips disagree on ~2*0.2*0.8 = 32% of coordinates.
  EXPECT_NEAR(static_cast<double>(differ) / 2048.0, 0.32, 0.05);
}

TEST(Noise, ProbedValueReflectsLatestPost) {
  const auto mat = zeros(1, 64);
  ProbeOracle o(mat, NoiseModel::sticky(0.5, 13));
  for (ObjectId j = 0; j < 64; ++j) {
    const bool read = o.probe(0, j);
    EXPECT_EQ(o.probed_value(0, j), read);
  }
}

TEST(Noise, ZeroEpsilonIsEquivalentToNone) {
  // eps = 0 must be bit-for-bit the noiseless oracle, not merely
  // "unlikely to flip".
  rng::Rng gen(41);
  const auto inst = matrix::uniform_random(4, 256, gen);
  ProbeOracle plain(inst.matrix);
  ProbeOracle sticky(inst.matrix, NoiseModel::sticky(0.0, 99));
  for (matrix::PlayerId p = 0; p < 4; ++p) {
    for (ObjectId j = 0; j < 256; ++j) {
      const bool truth = plain.probe(p, j);
      EXPECT_EQ(sticky.probe(p, j), truth);
    }
  }
}

TEST(Noise, FullEpsilonStickyIsDeterministicComplement) {
  // eps = 1 flips every read, deterministically: probes always return
  // the complement of the truth, and re-probes agree with themselves.
  rng::Rng gen(43);
  const auto inst = matrix::uniform_random(2, 256, gen);
  ProbeOracle o(inst.matrix, NoiseModel::sticky(1.0, 7));
  for (matrix::PlayerId p = 0; p < 2; ++p) {
    for (ObjectId j = 0; j < 256; ++j) {
      const bool read = o.probe(p, j);
      EXPECT_NE(read, inst.matrix.value(p, j));
      EXPECT_EQ(o.probe(p, j), read);
    }
  }
}

TEST(Noise, ZeroRadiusDegradesGracefullyUnderStickyNoise) {
  // An exact-agreement community read through sticky eps-noise is an
  // (alpha, ~2*eps*m) community of the *read* vectors; Zero Radius
  // (which assumes D = 0) fragments, but each player's output must stay
  // within O(eps*m) of its own noisy view rather than collapse.
  const std::size_t n = 256;
  const double eps = 0.01;
  rng::Rng gen(21);
  auto inst = matrix::planted_community(n, n, {1.0, 0}, gen);
  ProbeOracle oracle(inst.matrix, NoiseModel::sticky(eps, 5));

  std::vector<matrix::PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(n);
  std::iota(objects.begin(), objects.end(), 0u);

  const auto outputs = core::zero_radius_bits(oracle, nullptr, players, objects, 1.0,
                                              core::Params::practical(), rng::Rng(22));
  // ~eps*n expected read-flips per player; allow generous head room for
  // adopted popular vectors carrying other players' flips.
  std::size_t worst = 0;
  for (matrix::PlayerId p = 0; p < n; ++p) {
    worst = std::max(worst, outputs[p].hamming(inst.matrix.row(p)));
  }
  EXPECT_LT(worst, static_cast<std::size_t>(12 * eps * static_cast<double>(n)) + 4);
}

TEST(Noise, SmallRadiusAbsorbsStickyNoiseIntoD) {
  // Feeding the *noise-inflated* D to Small Radius restores the 5D
  // guarantee with respect to the players' noisy views — noise is just
  // extra diversity, the exact point of the paper's D-parameterized
  // guarantee.
  const std::size_t n = 128;
  const std::size_t m = 256;
  const double eps = 0.01;
  rng::Rng gen(31);
  auto inst = matrix::planted_community(n, m, {1.0, 1}, gen);
  ProbeOracle oracle(inst.matrix, NoiseModel::sticky(eps, 17));

  std::vector<matrix::PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(m);
  std::iota(objects.begin(), objects.end(), 0u);

  const auto noisy_D = static_cast<std::size_t>(
      2 + 4.0 * eps * static_cast<double>(m));  // planted 2 + noise inflation
  const auto res =
      core::small_radius(oracle, nullptr, players, objects, 1.0, noisy_D,
                         core::Params::practical(), rng::Rng(32), n, "sr");
  std::size_t worst = 0;
  for (matrix::PlayerId p = 0; p < n; ++p) {
    worst = std::max(worst, res.outputs[p].hamming(inst.matrix.row(p)));
  }
  EXPECT_LE(worst, 5 * noisy_D);
}

}  // namespace
}  // namespace tmwia::billboard
