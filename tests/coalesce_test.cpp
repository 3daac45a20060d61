// Tests for Algorithm Coalesce (Fig. 6 / Theorem 5.3): output size at
// most ~1/alpha, a unique representative close to every member of a
// planted cluster, bounded ?-entries, determinism, and probe-freeness
// (trivially: the API takes no oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tmwia/bits/hamming.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::core {
namespace {

using bits::BitVector;
using bits::TriVector;

TEST(Coalesce, EmptyInput) {
  const auto res = coalesce({}, 2, 1);
  EXPECT_TRUE(res.candidates.empty());
}

TEST(Coalesce, SingleClusterCollapsesToOneCandidate) {
  rng::Rng rng(1);
  const auto center = matrix::random_vector(128, rng);
  std::vector<BitVector> vs;
  for (int i = 0; i < 20; ++i) vs.push_back(matrix::flip_random(center, 2, rng));

  const auto res = coalesce(vs, 4, 10);
  ASSERT_EQ(res.candidates.size(), 1u);
  EXPECT_LE(res.candidates[0].dtilde(center), 8u);
}

TEST(Coalesce, UnderPopulatedInputYieldsNothing) {
  rng::Rng rng(2);
  std::vector<BitVector> vs;
  for (int i = 0; i < 5; ++i) vs.push_back(matrix::random_vector(256, rng));
  // Random 256-bit vectors are pairwise ~128 apart; min_ball 3 with
  // D=10 removes everything.
  const auto res = coalesce(vs, 10, 3);
  EXPECT_TRUE(res.candidates.empty());
}

TEST(Coalesce, TwoFarClustersStayDistinct) {
  rng::Rng rng(3);
  const auto c1 = matrix::random_vector(256, rng);
  const auto c2 = matrix::flip_random(c1, 200, rng);
  std::vector<BitVector> vs;
  for (int i = 0; i < 12; ++i) vs.push_back(matrix::flip_random(c1, 1, rng));
  for (int i = 0; i < 12; ++i) vs.push_back(matrix::flip_random(c2, 1, rng));

  const auto res = coalesce(vs, 2, 8);
  ASSERT_EQ(res.candidates.size(), 2u);
  // One candidate near each center.
  const std::size_t d11 = res.candidates[0].dtilde(c1);
  const std::size_t d12 = res.candidates[0].dtilde(c2);
  EXPECT_TRUE((d11 <= 4) != (d12 <= 4));
}

TEST(Coalesce, NearClustersMergeWithQuestionMarks) {
  // Two clusters within the 5D merge radius of each other produce one
  // merged candidate whose disagreements became '?'. (With D = 1 the
  // merge bound is 5; the centers are 2 apart.)
  const auto a = BitVector::from_string("00000000");
  const auto b = BitVector::from_string("00000011");
  std::vector<BitVector> vs;
  for (int i = 0; i < 6; ++i) vs.push_back(a);
  for (int i = 0; i < 6; ++i) vs.push_back(b);

  const auto res = coalesce(vs, 1, 4);
  ASSERT_EQ(res.candidates.size(), 1u);
  EXPECT_EQ(res.candidates[0].to_string(), "000000??");
  EXPECT_EQ(res.pre_merge_count, 2u);
}

TEST(Coalesce, MergeBoundRespected) {
  // Same two clusters, but with merge_mult 0 they must NOT merge
  // (dtilde = 2 > 0).
  const auto a = BitVector::from_string("00000000");
  const auto b = BitVector::from_string("00000011");
  std::vector<BitVector> vs;
  for (int i = 0; i < 6; ++i) vs.push_back(a);
  for (int i = 0; i < 6; ++i) vs.push_back(b);

  const auto res = coalesce(vs, 0, 4, /*merge_mult=*/0.0);
  EXPECT_EQ(res.candidates.size(), 2u);
}

TEST(Coalesce, Deterministic) {
  rng::Rng rng(4);
  std::vector<BitVector> vs;
  const auto center = matrix::random_vector(64, rng);
  for (int i = 0; i < 30; ++i) vs.push_back(matrix::flip_random(center, 3, rng));
  for (int i = 0; i < 10; ++i) vs.push_back(matrix::random_vector(64, rng));

  const auto r1 = coalesce(vs, 6, 15);
  const auto r2 = coalesce(vs, 6, 15);
  EXPECT_EQ(r1.candidates, r2.candidates);
}

// Theorem 5.3 property sweep: plant an (alpha, D)-cluster among noise;
// verify output size <= 1/alpha', a unique closest representative
// within 2D of every cluster member, and <= 5D/alpha' question marks.
struct CoalesceCase {
  std::size_t n;
  std::size_t m;
  std::size_t D;
  double alpha;
  std::uint64_t seed;
};

class CoalesceProperty : public ::testing::TestWithParam<CoalesceCase> {};

TEST_P(CoalesceProperty, Theorem53Properties) {
  const auto [n, m, D, alpha, seed] = GetParam();
  rng::Rng rng(seed);

  const auto center = matrix::random_vector(m, rng);
  const auto cluster_size = static_cast<std::size_t>(alpha * static_cast<double>(n));
  std::vector<BitVector> vs;
  std::vector<std::size_t> cluster_idx;
  for (std::size_t i = 0; i < cluster_size; ++i) {
    cluster_idx.push_back(vs.size());
    vs.push_back(matrix::flip_random(center, rng.uniform(D / 2 + 1), rng));
  }
  while (vs.size() < n) vs.push_back(matrix::random_vector(m, rng));

  const auto min_ball = cluster_size;
  const auto res = coalesce(vs, D, min_ball);

  // Size bound: each pre-merge representative accounts for >= min_ball
  // distinct input vectors.
  EXPECT_LE(res.pre_merge_count, n / min_ball);
  EXPECT_LE(res.candidates.size(), res.pre_merge_count);
  ASSERT_FALSE(res.candidates.empty());

  // A unique candidate within 2D of every cluster member.
  std::size_t close_candidates = 0;
  std::size_t best = 0;
  for (std::size_t c = 0; c < res.candidates.size(); ++c) {
    bool close_to_all = true;
    for (std::size_t i : cluster_idx) {
      if (res.candidates[c].dtilde(vs[i]) > 2 * D) {
        close_to_all = false;
        break;
      }
    }
    if (close_to_all) {
      ++close_candidates;
      best = c;
    }
  }
  EXPECT_EQ(close_candidates, 1u);

  // ?-entries bound: 5D per merge, at most |A|-1 merges, so
  // 5D * pre_merge_count is a safe form of the paper's 5D/alpha.
  EXPECT_LE(res.candidates[best].unknown_count(), 5 * D * res.pre_merge_count);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoalesceProperty,
                         ::testing::Values(CoalesceCase{40, 256, 4, 0.5, 11},
                                           CoalesceCase{60, 256, 8, 0.3, 12},
                                           CoalesceCase{80, 512, 6, 0.25, 13},
                                           CoalesceCase{100, 512, 10, 0.2, 14},
                                           CoalesceCase{120, 512, 12, 0.5, 15},
                                           CoalesceCase{150, 1024, 16, 0.3, 16}));

TEST(Coalesce, RepresentativeNeverAssertsAncestorDisagreement) {
  // Lemma 5.1: for input v and any representative u it merged into,
  // dtilde(v, rep) <= dist(v, u). Build a three-way merge chain and
  // check all inputs.
  std::vector<BitVector> vs;
  for (int i = 0; i < 4; ++i) vs.push_back(BitVector::from_string("000000"));
  for (int i = 0; i < 4; ++i) vs.push_back(BitVector::from_string("000011"));
  for (int i = 0; i < 4; ++i) vs.push_back(BitVector::from_string("001100"));

  const auto res = coalesce(vs, 1, 3);
  ASSERT_EQ(res.candidates.size(), 1u);
  const auto& rep = res.candidates[0];
  EXPECT_EQ(rep.to_string(), "00????");
  for (const auto& v : vs) {
    EXPECT_EQ(rep.dtilde(v), 0u);
  }
}

// Reference: Coalesce over an n x n uint32 distance matrix, with step
// 2a as whole sweeps over index lists (each sweep counts every ball
// against the live set it started from). coalesce() keeps one ball
// bit per pair instead and drops vectors in place; both must give the
// same candidates.
CoalesceResult matrix_coalesce(const std::vector<BitVector>& vectors, std::size_t D,
                               std::size_t min_ball, double merge_mult) {
  CoalesceResult res;
  if (vectors.empty()) return res;
  if (min_ball == 0) min_ball = 1;

  const std::size_t n = vectors.size();
  std::vector<std::uint32_t> dist_matrix(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    bits::kernels::dist_many(vectors[i], vectors,
                             std::span<std::uint32_t>(dist_matrix).subspan(i * n, n));
  }
  const auto dist_at = [&](std::size_t i, std::size_t j) {
    return static_cast<std::size_t>(dist_matrix[i * n + j]);
  };

  std::vector<std::size_t> live(n);
  for (std::size_t i = 0; i < n; ++i) live[i] = i;
  std::vector<TriVector> a;
  while (!live.empty()) {
    bool changed = true;
    while (changed && !live.empty()) {
      changed = false;
      std::vector<std::size_t> kept;
      for (std::size_t i : live) {
        std::size_t ball = 0;
        for (std::size_t j : live) {
          if (dist_at(i, j) <= D) ++ball;
        }
        if (ball >= min_ball) {
          kept.push_back(i);
        } else {
          changed = true;
        }
      }
      live.swap(kept);
    }
    if (live.empty()) break;

    std::size_t first = live[0];
    for (std::size_t i : live) {
      if (vectors[i].lex_compare(vectors[first]) < 0) first = i;
    }
    a.push_back(TriVector::from_bits(vectors[first]));
    std::vector<std::size_t> kept;
    for (std::size_t j : live) {
      if (dist_at(first, j) > D) kept.push_back(j);
    }
    live.swap(kept);
  }

  res.pre_merge_count = a.size();
  const auto merge_bound =
      static_cast<std::size_t>(std::floor(merge_mult * static_cast<double>(D)));
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < a.size() && !merged; ++i) {
      for (std::size_t j = i + 1; j < a.size() && !merged; ++j) {
        if (a[i].dtilde(a[j]) <= merge_bound) {
          TriVector m = a[i].merge(a[j]);
          a.erase(a.begin() + static_cast<std::ptrdiff_t>(j));
          a.erase(a.begin() + static_cast<std::ptrdiff_t>(i));
          a.push_back(std::move(m));
          merged = true;
        }
      }
    }
  }
  std::sort(a.begin(), a.end(),
            [](const TriVector& x, const TriVector& y) { return x.lex_compare(y) < 0; });
  res.candidates = std::move(a);
  return res;
}

/// One random Coalesce input: planted centres (some within merge range
/// of each other), members scattered around them, chains one flip
/// apart (so a drop cascades), exact duplicates and uniform noise, in
/// shuffled order.
std::vector<BitVector> random_multiset(std::size_t n, std::size_t m, rng::Rng& rng) {
  std::vector<BitVector> centres;
  const auto k = 1 + rng.uniform(4);
  for (std::uint64_t c = 0; c < k; ++c) {
    if (c > 0 && rng.uniform(2) == 0) {
      centres.push_back(matrix::flip_random(centres[rng.uniform(c)],
                                            rng.uniform(std::min<std::size_t>(m, 8) + 1),
                                            rng));
    } else {
      centres.push_back(matrix::random_vector(m, rng));
    }
  }
  std::vector<BitVector> vs;
  while (vs.size() < n) {
    const auto kind = rng.uniform(8);
    if (kind < 4) {
      const auto& c = centres[rng.uniform(centres.size())];
      vs.push_back(matrix::flip_random(c, rng.uniform(std::min<std::size_t>(m, 4) + 1), rng));
    } else if (kind == 4) {
      vs.push_back(centres[rng.uniform(centres.size())]);
    } else if (kind == 5 && !vs.empty()) {
      vs.push_back(vs[rng.uniform(vs.size())]);
    } else if (kind == 6) {
      BitVector v = centres[rng.uniform(centres.size())];
      for (auto len = 1 + rng.uniform(6); len > 0 && vs.size() < n; --len) {
        v = matrix::flip_random(v, 1, rng);
        vs.push_back(v);
      }
    } else {
      vs.push_back(matrix::random_vector(m, rng));
    }
  }
  for (std::size_t i = vs.size(); i > 1; --i) std::swap(vs[i - 1], vs[rng.uniform(i)]);
  return vs;
}

TEST(Coalesce, BallBitsetMatchesTheDistanceMatrixReference) {
  rng::Rng rng(20261019);
  std::size_t nonempty = 0;
  std::size_t merged = 0;
  constexpr std::size_t kCases = 600;
  for (std::size_t t = 0; t < kCases; ++t) {
    // n = 1, word multiples and word tails; m up to 300 bits.
    const std::size_t n_pick = rng.uniform(10);
    const std::size_t n = n_pick == 0   ? 1
                          : n_pick == 1 ? 64 * (1 + rng.uniform(3))
                                        : 1 + rng.uniform(200);
    const std::size_t m = 1 + rng.uniform(300);
    const auto vs = random_multiset(n, m, rng);

    // D: 0, small, or at least m (every pair in every ball).
    const std::size_t d_pick = rng.uniform(6);
    const std::size_t D = d_pick == 0   ? 0
                          : d_pick == 1 ? m + rng.uniform(4)
                                        : rng.uniform(std::min<std::size_t>(m, 24) + 1);
    // min_ball: 0 (read as 1), in range, or above n (nothing survives).
    const std::size_t b_pick = rng.uniform(8);
    const std::size_t min_ball = b_pick == 0   ? 0
                                 : b_pick == 1 ? n + 1 + rng.uniform(3)
                                               : 1 + rng.uniform(std::max<std::size_t>(n / 3, 1));
    const double merge_mult =
        rng.uniform(5) == 0 ? 5.0 : 0.25 * static_cast<double>(rng.uniform(10));

    const auto want = matrix_coalesce(vs, D, min_ball, merge_mult);
    const auto got = coalesce(vs, D, min_ball, merge_mult);
    ASSERT_EQ(got.pre_merge_count, want.pre_merge_count)
        << "case " << t << ": n=" << n << " m=" << m << " D=" << D
        << " min_ball=" << min_ball << " merge_mult=" << merge_mult;
    ASSERT_EQ(got.candidates, want.candidates) << "case " << t;
    if (!want.candidates.empty()) ++nonempty;
    if (want.candidates.size() < want.pre_merge_count) ++merged;
  }
  // The inputs must reach both halves of the algorithm.
  EXPECT_GE(nonempty, kCases / 4);
  EXPECT_GE(merged, kCases / 20);
}

}  // namespace
}  // namespace tmwia::core
