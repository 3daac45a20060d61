// Tests for Select (Fig. 3 / Theorem 3.2) and RSelect (Fig. 7 /
// Theorem 6.1). The probe side is a counting closure over an explicit
// truth vector, so we verify both correctness (closest candidate,
// lexicographic ties) and the probe bound k(D+1).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/rng.hpp"
#include "trivector_text.hpp"

namespace tmwia::core {
namespace {

using bits::BitVector;
using bits::TriVector;
using bits::tri_from_string;

// Returns the closure itself (not a ProbeFn): ProbeFn is a non-owning
// view, so the callable must outlive the select call it is passed to.
auto probe_of(const BitVector& truth, std::size_t* counter = nullptr) {
  return [&truth, counter](std::uint32_t j) {
    if (counter != nullptr) ++*counter;
    return truth.get(j);
  };
}

TEST(Select, SingleCandidateNoProbes) {
  const auto truth = BitVector::from_string("0101");
  std::vector<BitVector> cands{BitVector::from_string("1111")};
  const auto res = select_closest(cands, 0, probe_of(truth));
  EXPECT_EQ(res.index, 0u);
  EXPECT_EQ(res.probes, 0u);
}

TEST(Select, PicksExactMatchWithBoundZero) {
  const auto truth = BitVector::from_string("0101");
  std::vector<BitVector> cands{BitVector::from_string("0001"), BitVector::from_string("0101"),
                               BitVector::from_string("1101")};
  const auto res = select_closest(cands, 0, probe_of(truth));
  EXPECT_EQ(res.index, 1u);
  EXPECT_EQ(res.observed_disagreements, 0u);
}

TEST(Select, PicksClosestWithinBound) {
  const auto truth = BitVector::from_string("00000000");
  std::vector<BitVector> cands{
      BitVector::from_string("00000011"),  // dist 2
      BitVector::from_string("00000001"),  // dist 1  <- closest
      BitVector::from_string("01111111"),  // dist 7
  };
  const auto res = select_closest(cands, 2, probe_of(truth));
  EXPECT_EQ(res.index, 1u);
}

TEST(Select, LexicographicTieBreak) {
  const auto truth = BitVector::from_string("0011");
  // Both candidates at distance 1; "0001" < "0111" lexicographically.
  std::vector<BitVector> cands{BitVector::from_string("0111"), BitVector::from_string("0001")};
  const auto res = select_closest(cands, 1, probe_of(truth));
  EXPECT_EQ(res.index, 1u);
}

TEST(Select, IdenticalCandidatesNoProbes) {
  const auto truth = BitVector::from_string("0011");
  std::vector<BitVector> cands{BitVector::from_string("0101"), BitVector::from_string("0101")};
  const auto res = select_closest(cands, 3, probe_of(truth));
  EXPECT_EQ(res.probes, 0u);  // no distinguishing coordinates
}

TEST(Select, SomeCandidateAlwaysSurvives) {
  // Even with every candidate far from the truth and bound 0, the
  // probed bit always matches one side of a distinguishing coordinate,
  // so Select still returns the best-effort candidate (here: the one
  // agreeing with the truth on the coordinates where the candidates
  // disagree with each other).
  const auto truth = BitVector::from_string("00000000");
  std::vector<BitVector> cands{BitVector::from_string("11111111"),
                               BitVector::from_string("11110000")};
  const auto res = select_closest(cands, 0, probe_of(truth));
  EXPECT_EQ(res.index, 1u);
  EXPECT_EQ(res.observed_disagreements, 0u);  // invisible disagreements at 0-3
}

TEST(Select, EmptyCandidatesThrow) {
  std::vector<BitVector> cands;
  EXPECT_THROW(select_closest(cands, 0, probe_of(BitVector(4))), std::invalid_argument);
}

TEST(Select, RaggedCandidatesThrow) {
  std::vector<BitVector> cands{BitVector(4), BitVector(5)};
  EXPECT_THROW(select_closest(cands, 0, probe_of(BitVector(4))), std::invalid_argument);
}

TEST(Select, UnknownEntriesNeverDistinguish) {
  const auto truth = BitVector::from_string("0000");
  std::vector<TriVector> cands{tri_from_string("0?00"), tri_from_string("0?00")};
  std::size_t probes = 0;
  const auto res = select_closest(cands, 1, probe_of(truth, &probes));
  EXPECT_EQ(probes, 0u);
  EXPECT_EQ(res.probes, 0u);
}

TEST(Select, DtildeSemanticsWithUnknowns) {
  const auto truth = BitVector::from_string("0011");
  std::vector<TriVector> cands{
      tri_from_string("??11"),  // dtilde to truth: 0
      tri_from_string("0000"),  // dtilde to truth: 2
  };
  const auto res = select_closest(cands, 2, probe_of(truth));
  EXPECT_EQ(res.index, 0u);
}

// Property sweep: Theorem 3.2's probe bound k(D+1) and exactness, over
// random candidate sets.
struct SelectSweep {
  std::size_t k;
  std::size_t D;
};

class SelectProperty : public ::testing::TestWithParam<SelectSweep> {};

TEST_P(SelectProperty, ProbeBoundAndExactness) {
  const auto [k, D] = GetParam();
  const std::size_t m = 256;
  rng::Rng rng(1000 + k * 31 + D);

  for (int trial = 0; trial < 20; ++trial) {
    const auto truth = matrix::random_vector(m, rng);
    std::vector<BitVector> cands;
    // Plant one candidate within D, the rest random.
    cands.push_back(matrix::flip_random(truth, rng.uniform(D + 1), rng));
    for (std::size_t i = 1; i < k; ++i) {
      cands.push_back(matrix::random_vector(m, rng));
    }

    std::size_t probes = 0;
    const auto res = select_closest(cands, D, probe_of(truth, &probes));

    // Theorem 3.2: probe bound.
    EXPECT_LE(res.probes, k * (D + 1));
    EXPECT_EQ(res.probes, probes);
    EXPECT_LE(res.observed_disagreements, D);

    // Output is a genuinely closest candidate.
    std::size_t best = truth.hamming(cands[0]);
    for (const auto& c : cands) best = std::min(best, truth.hamming(c));
    EXPECT_EQ(truth.hamming(cands[res.index]), best);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SelectProperty,
                         ::testing::Values(SelectSweep{2, 0}, SelectSweep{2, 4},
                                           SelectSweep{4, 1}, SelectSweep{8, 8},
                                           SelectSweep{16, 2}, SelectSweep{16, 16},
                                           SelectSweep{32, 5}, SelectSweep{64, 3}));

// ------------------------------------------------------------------ RSelect

TEST(RSelect, SingleCandidateTrivial) {
  std::vector<BitVector> cands{BitVector::from_string("0101")};
  rng::Rng rng(7);
  const auto res = rselect_closest(cands, 64, probe_of(BitVector(4)), rng);
  EXPECT_EQ(res.index, 0u);
  EXPECT_EQ(res.probes, 0u);
}

TEST(RSelect, PicksFarBetterCandidate) {
  const std::size_t m = 512;
  rng::Rng rng(11);
  const auto truth = matrix::random_vector(m, rng);
  std::vector<BitVector> cands{
      matrix::flip_random(truth, 4, rng),    // close
      matrix::flip_random(truth, 200, rng),  // far
  };
  rng::Rng prng(13);
  const auto res = rselect_closest(cands, 512, probe_of(truth), prng);
  EXPECT_EQ(res.index, 0u);
}

TEST(RSelect, ProbeBudgetQuadraticInCandidates) {
  const std::size_t m = 512;
  const std::size_t n = 512;
  rng::Rng rng(17);
  const auto truth = matrix::random_vector(m, rng);
  std::vector<BitVector> cands;
  for (int i = 0; i < 8; ++i) cands.push_back(matrix::random_vector(m, rng));

  Params params;
  rng::Rng prng(19);
  const auto res = rselect_closest(cands, n, probe_of(truth), prng, params);
  const auto per_pair = static_cast<std::size_t>(
      std::ceil(params.rs_c * std::log2(static_cast<double>(n))));
  EXPECT_LE(res.probes, cands.size() * (cands.size() - 1) / 2 * per_pair);
}

TEST(RSelect, OutputWithinConstantFactorOfBest) {
  const std::size_t m = 1024;
  rng::Rng rng(23);
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto truth = matrix::random_vector(m, rng);
    std::vector<BitVector> cands;
    const std::size_t best_d = 8;
    cands.push_back(matrix::flip_random(truth, best_d, rng));
    for (int i = 0; i < 6; ++i) {
      cands.push_back(matrix::flip_random(truth, 16 + rng.uniform(400), rng));
    }
    rng::Rng prng(1700 + trial);
    const auto res = rselect_closest(cands, 1024, probe_of(truth), prng);
    // Theorem 6.1: output within O(D) of the best. Use factor 8 as the
    // concrete constant for this configuration.
    if (truth.hamming(cands[res.index]) > 8 * best_d) ++failures;
  }
  EXPECT_LE(failures, 1);
}

TEST(RSelect, IdenticalCandidatesAnyIsFine) {
  std::vector<BitVector> cands{BitVector::from_string("0101"), BitVector::from_string("0101")};
  rng::Rng rng(29);
  const auto res = rselect_closest(cands, 64, probe_of(BitVector::from_string("0101")), rng);
  EXPECT_EQ(res.probes, 0u);
  EXPECT_EQ(cands[res.index].to_string(), "0101");
}

TEST(RSelect, EmptyThrows) {
  std::vector<BitVector> cands;
  rng::Rng rng(31);
  EXPECT_THROW(rselect_closest(cands, 64, probe_of(BitVector(4)), rng), std::invalid_argument);
}

}  // namespace
}  // namespace tmwia::core
