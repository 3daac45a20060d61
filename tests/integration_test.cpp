// Cross-feature integration tests: multiple communities through Large
// Radius, the full unknown-D driver under probe noise, noise+Byzantine
// combined, and serialization round-trips of algorithm outputs.
#include <gtest/gtest.h>

#include <sstream>

#include "tmwia/core/tmwia.hpp"
#include "tmwia/io/serialize.hpp"

namespace tmwia::core {
namespace {

TEST(Integration, TwoLargeDiameterCommunitiesViaUnknownD) {
  // Two communities with D >> log n active simultaneously: Coalesce
  // must keep their candidates separate per group and the virtual Zero
  // Radius must serve both at once.
  const std::size_t n = 512;
  const std::size_t m = 1024;
  rng::Rng gen(1);
  auto inst = matrix::planted_communities(n, m, {{0.4, 16}, {0.4, 24}}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = find_preferences_unknown_d(oracle, nullptr, 0.4, Params::practical(),
                                              rng::Rng(2));
  for (std::size_t c = 0; c < 2; ++c) {
    const auto D = inst.matrix.subset_diameter(inst.communities[c]);
    const auto disc = inst.matrix.discrepancy(res.outputs, inst.communities[c]);
    EXPECT_LE(disc, 6 * D) << "community " << c;
  }
}

TEST(Integration, UnknownDUnderStickyNoise) {
  // End-to-end with noisy reads: the unknown-D search should simply
  // settle on a larger effective D and keep the error at the
  // noise-inflated scale.
  const std::size_t n = 256;
  const double eps = 0.01;
  rng::Rng gen(3);
  auto inst = matrix::planted_community(n, n, {0.5, 1}, gen);

  billboard::ProbeOracle oracle(inst.matrix, billboard::NoiseModel::sticky(eps, 99));
  const auto res = find_preferences_unknown_d(oracle, nullptr, 0.5, Params::practical(),
                                              rng::Rng(4));
  const auto d_eff = static_cast<std::size_t>(
      2 + 4.0 * eps * static_cast<double>(n));  // planted + noise inflation
  const auto disc = inst.matrix.discrepancy(res.outputs, inst.communities[0]);
  EXPECT_LE(disc, 6 * d_eff);
}

TEST(Integration, NoisePlusByzantineIsADocumentedBoundary) {
  // Both failure sources at once expose a real boundary of Zero
  // Radius's Byzantine resilience: sticky read noise makes every honest
  // player's posted vector slightly different, fragmenting the honest
  // vote below the popularity threshold, while the liars' coordinated
  // forgery stays identical — so the forgery can become the ONLY
  // popular candidate, and a singleton candidate is adopted without any
  // probing (Select has no distinguishing coordinates to check). The
  // probing defense (byzantine_test.cpp) therefore requires the exact
  // agreement ZeroRadius assumes; under noise the right tool is Small
  // Radius with the noise-inflated D (noise_test.cpp, bench e13), whose
  // per-part exact-agreement structure Lemma 4.1 restores.
  const std::size_t n = 256;
  const double eps = 0.005;
  rng::Rng gen(5);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);

  billboard::ProbeOracle oracle(inst.matrix, billboard::NoiseModel::sticky(eps, 7));
  BitSpace space(oracle, nullptr);
  const auto outsiders = inst.outsiders();
  std::vector<PlayerId> liars(outsiders.begin(),
                              outsiders.begin() + static_cast<std::ptrdiff_t>(n / 5));
  space.set_byzantine(liars, inst.centers[0] ^ bits::BitVector(n, true));

  std::vector<PlayerId> players(n);
  std::vector<std::uint32_t> objects(n);
  for (std::size_t i = 0; i < n; ++i) {
    players[i] = static_cast<PlayerId>(i);
    objects[i] = static_cast<std::uint32_t>(i);
  }
  const auto raw =
      zero_radius(space, players, objects, 0.5, Params::practical(), rng::Rng(6), n);

  std::size_t worst = 0;
  for (auto p : inst.communities[0]) {
    worst = std::max(worst, raw[p].hamming(inst.matrix.row(p)));
  }
  // The attack lands: some community member adopts forged halves.
  EXPECT_GT(worst, n / 8);
}

TEST(Integration, OutputsSurviveSerializationAndReEvaluation) {
  const std::size_t n = 128;
  rng::Rng gen(7);
  auto inst = matrix::planted_community(n, n, {0.5, 1}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      find_preferences(oracle, nullptr, 0.5, 2, Params::practical(), rng::Rng(8));

  std::stringstream ss;
  io::save_instance(inst, ss);
  io::save_outputs(res.outputs, ss);

  const auto inst2 = io::load_instance(ss);
  const auto outs2 = io::load_outputs(ss, inst2.matrix.objects());
  EXPECT_EQ(inst2.matrix.discrepancy(outs2, inst2.communities[0]),
            inst.matrix.discrepancy(res.outputs, inst.communities[0]));
}

}  // namespace
}  // namespace tmwia::core
