// Tests for the rng module: engine statistical sanity, split-stream
// independence and determinism, and the partition primitives the
// algorithms lean on (Lemma 4.1's i.i.d. partition, Zero Radius's half
// split, Large Radius's multi-part player assignment).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "tmwia/rng/partition.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::rng {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIsPureAndTagSensitive) {
  Rng root(7);
  Rng c1 = root.split(1);
  Rng c2 = root.split(1);
  Rng c3 = root.split(2);
  EXPECT_EQ(c1.next(), c2.next());  // same tag => same stream
  Rng c4 = root.split(1);
  EXPECT_NE(c4.next(), c3.next());  // different tag => different stream

  // splitting does not advance the parent
  Rng fresh(7);
  EXPECT_EQ(root.next(), fresh.next());
}

TEST(Rng, SplitMultiTag) {
  Rng root(7);
  EXPECT_NE(root.split(1, 2).next(), root.split(2, 1).next());
  EXPECT_NE(root.split(1, 0, 3).next(), root.split(1, 3, 0).next());
}

TEST(Rng, UniformBoundsRespected) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.uniform(7), 7u);
  }
  EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformApproximatelyUniform) {
  Rng r(13);
  std::vector<int> counts(8, 0);
  const int N = 80000;
  for (int i = 0; i < N; ++i) ++counts[r.uniform(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, N / 8, 400);  // ~4 sigma
  }
}

TEST(Rng, Uniform01InRange) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 40000; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 40000.0, 0.3, 0.015);
}

// ------------------------------------------------------------- keyed hash

// rng::mix and hash_bernoulli key sticky probe noise and every fault
// draw, so checkpoints, flight logs and fault reports depend on their
// exact bits: these values were printed by the per-file mixers they
// replaced (ProbeOracle's noise hash, fault_plan.cpp, fault_injector.cpp).
TEST(Rng, MixAndHashBernoulliMatchThePinnedValues) {
  struct Case {
    std::uint64_t a, b, c, want;
  };
  const Case cases[] = {
      {0x0ull, 0x0ull, 0x0ull, 0x5692161d100b05e5ull},
      {0x1ull, 0x2ull, 0x3ull, 0x57ef7245dbc0eebeull},
      {0xfa17ull, 0x7ull, 0x12d687ull, 0xe9abd9ee44be435eull},
      {0xdeadbeefcafef00dull, 0xffffffffull, 0x2aull, 0xccce13248fa05935ull},
      {~0ull, ~0ull, ~0ull, 0xc95d07cb2bd44fdaull},
  };
  for (const auto& c : cases) EXPECT_EQ(mix(c.a, c.b, c.c), c.want) << c.a << " " << c.b;
  static_assert(mix(1, 2, 3) == 0x57ef7245dbc0eebeull);

  unsigned hits = 0;
  for (std::uint64_t o = 0; o < 1000; ++o) hits += hash_bernoulli(mix(99, 3, o), 0.3) ? 1 : 0;
  EXPECT_EQ(hits, 298u);
  EXPECT_FALSE(hash_bernoulli(mix(1, 2, 3), 0.0));
  EXPECT_TRUE(hash_bernoulli(mix(1, 2, 3), 1.0));
}

// ----------------------------------------------------------------- partitions

TEST(Partition, RandomPartitionCoversExactly) {
  Rng r(29);
  const auto p = random_partition(100, 7, r);
  EXPECT_EQ(p.parts.size(), 7u);
  std::set<std::uint32_t> seen;
  std::size_t total = 0;
  for (const auto& part : p.parts) {
    for (auto id : part) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate " << id;
    }
    total += part.size();
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
  }
  EXPECT_EQ(total, 100u);
}

TEST(Partition, RandomPartitionRoughlyBalanced) {
  Rng r(31);
  const auto p = random_partition(10000, 10, r);
  for (const auto& part : p.parts) {
    EXPECT_NEAR(static_cast<double>(part.size()), 1000.0, 150.0);
  }
}

TEST(Partition, RandomPartitionRejectsZeroParts) {
  Rng r(37);
  EXPECT_THROW(random_partition(10, 0, r), std::invalid_argument);
}

TEST(Partition, SinglePartGetsEverything) {
  Rng r(41);
  const auto p = random_partition(50, 1, r);
  EXPECT_EQ(p.parts[0].size(), 50u);
}

TEST(Partition, HalfSplitSizesAndDisjointness) {
  Rng r(43);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 101; ++i) ids.push_back(i * 3);
  const auto [a, b] = random_half_split(ids, r);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(b.size(), 51u);
  std::set<std::uint32_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  for (auto x : sa) EXPECT_EQ(sb.count(x), 0u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST(Partition, HalfSplitIsActuallyRandom) {
  std::vector<std::uint32_t> ids(64);
  for (std::uint32_t i = 0; i < 64; ++i) ids[i] = i;
  Rng r1(47), r2(48);
  const auto [a1, b1] = random_half_split(ids, r1);
  const auto [a2, b2] = random_half_split(ids, r2);
  EXPECT_NE(a1, a2);
}

TEST(Partition, AssignToPartsEachItemInExactlyCopies) {
  Rng r(53);
  std::vector<std::uint32_t> ids(40);
  for (std::uint32_t i = 0; i < 40; ++i) ids[i] = i;
  const auto p = assign_to_parts(ids, 8, 3, r);
  std::map<std::uint32_t, int> count;
  for (const auto& part : p.parts) {
    std::set<std::uint32_t> in_part(part.begin(), part.end());
    EXPECT_EQ(in_part.size(), part.size()) << "item twice in one part";
    for (auto id : part) ++count[id];
  }
  for (auto id : ids) EXPECT_EQ(count[id], 3) << "item " << id;
}

TEST(Partition, AssignToPartsClampsCopies) {
  Rng r(59);
  std::vector<std::uint32_t> ids{1, 2, 3};
  const auto p = assign_to_parts(ids, 2, 10, r);  // copies clamped to 2
  std::map<std::uint32_t, int> count;
  for (const auto& part : p.parts) {
    for (auto id : part) ++count[id];
  }
  for (auto id : ids) EXPECT_EQ(count[id], 2);
}

TEST(Sampling, WithoutReplacementDistinctSortedInRange) {
  Rng r(61);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = sample_without_replacement(100, 10, r);
    EXPECT_EQ(s.size(), 10u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    std::set<std::uint32_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 10u);
    for (auto x : s) EXPECT_LT(x, 100u);
  }
}

TEST(Sampling, FullSampleIsIdentity) {
  Rng r(67);
  const auto s = sample_without_replacement(5, 5, r);
  EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Sampling, RejectsOversample) {
  Rng r(71);
  EXPECT_THROW(sample_without_replacement(3, 4, r), std::invalid_argument);
}

TEST(Sampling, MarginalsUniform) {
  // Every index should appear with probability k/n.
  Rng r(73);
  std::vector<int> counts(20, 0);
  const int N = 20000;
  for (int i = 0; i < N; ++i) {
    for (auto x : sample_without_replacement(20, 5, r)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, N / 4, 350);
  }
}

/// The sampler as it was before the bitmap walk: Floyd's draws marked
/// in a fresh membership array, then a sort. The reference the bitmap
/// version must match draw for draw.
std::vector<std::uint32_t> sample_by_sorting(std::size_t n, std::size_t k, Rng& rng) {
  std::vector<std::uint32_t> out;
  std::vector<bool> chosen(n, false);
  for (std::size_t j = n - k; j < n; ++j) {
    auto t = static_cast<std::uint32_t>(rng.uniform(j + 1));
    if (chosen[t]) t = static_cast<std::uint32_t>(j);
    chosen[t] = true;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Same sample and same RNG state after the call as the sorting
// version, at word-boundary sizes and RSelect's shape, for k from 0 to
// n. Calls of different sizes alternate on one thread, so a mark left
// behind by one call would show in the next.
TEST(Sampling, BitmapWalkMatchesTheSortingSampler) {
  constexpr std::size_t kSizes[] = {1, 63, 64, 65, 729, 5000};
  for (const std::size_t n : kSizes) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n}) {
      for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng a(Rng(seed).split(n * 7919 + k));
        Rng b = a;
        ASSERT_EQ(sample_without_replacement(n, k, a), sample_by_sorting(n, k, b))
            << "n=" << n << " k=" << k << " seed=" << seed;
        ASSERT_EQ(a.next(), b.next()) << "n=" << n << " k=" << k << " seed=" << seed;
      }
    }
  }
}

TEST(Shuffle, PermutationPreserved) {
  Rng r(79);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  shuffle(w, r);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

}  // namespace
}  // namespace tmwia::rng
