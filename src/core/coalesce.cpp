#include "tmwia/core/coalesce.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::core {
namespace {

/// Calls f(i) for every set bit i of `words`, in ascending order. Each
/// word is read once before its bits are visited, so f may clear the
/// bit it is handed.
template <class F>
void for_each_set_bit(const std::vector<std::uint64_t>& words, F&& f) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t rest = words[w]; rest != 0; rest &= rest - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(rest)));
    }
  }
}

}  // namespace

CoalesceResult coalesce(const std::vector<bits::BitVector>& vectors, std::size_t D,
                        std::size_t min_ball, double merge_mult) {
  CoalesceResult res;
  if (vectors.empty()) return res;
  if (min_ball == 0) min_ball = 1;

  // Fig. 6 only asks whether dist(i, j) <= D, and pairwise distances
  // never change — only ball membership does as vectors are removed. So
  // keep one n-bit ball row per vector (bit j of row i is set iff
  // dist(i, j) <= D), thresholded from one dist_many row at a time, and
  // run step 2 on a live bitset: |ball(i)| over the current V is
  // popcount(row_i & live), and removing ball(first) is
  // live &= ~row_first. The rows are independent: the pool fills them,
  // each thread through its own distance buffer, each row at its index.
  const std::size_t n = vectors.size();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> balls(n * words);
  engine::parallel_for(0, n, [&](std::size_t i) {
    thread_local std::vector<std::uint32_t> dist;
    dist.resize(n);
    bits::kernels::dist_many(vectors[i], vectors, dist);
    std::uint64_t* row = balls.data() + i * words;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint32_t* d = dist.data() + w * 64;
      const std::size_t count = std::min<std::size_t>(64, n - w * 64);
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < count; ++b) {
        word |= static_cast<std::uint64_t>(d[b] <= D) << b;
      }
      row[w] = word;
    }
  });
  // Logical bytes handed to the kernel layer: n rows of n vectors,
  // word-granular — backend-invariant, so safe for determinism diffs.
  obs::profile_cost(obs::Cost::kKernelBytes,
                    static_cast<std::uint64_t>(n) * n * vectors[0].words().size() * 8);

  std::vector<std::uint64_t> live(words, ~std::uint64_t{0});
  if (n % 64 != 0) live.back() = (std::uint64_t{1} << (n % 64)) - 1;
  const auto live_in_ball = [&](std::size_t i) {
    return bits::kernels::and_popcount_words(balls.data() + i * words, live.data(), words);
  };

  std::vector<bits::TriVector> a;  // the representative set A (step 2)

  while (true) {
    // Step 2a: drop vectors whose ball is under-populated, until none
    // is (a drop can under-populate another ball). Every drop order
    // ends at the same set: the largest subset of V in which every
    // member's ball holds min_ball of its members. That set is unique,
    // and no drop ever removes one of its members.
    bool changed = true;
    while (changed) {
      changed = false;
      for_each_set_bit(live, [&](std::size_t i) {
        if (live_in_ball(i) < min_ball) {
          live[i / 64] &= ~(std::uint64_t{1} << (i % 64));
          changed = true;
        }
      });
    }

    // Step 2b: lexicographically first remaining vector; scanning in
    // index order resolves equal vectors to the lowest index.
    std::size_t first = n;
    for_each_set_bit(live, [&](std::size_t i) {
      if (first == n || vectors[i].lex_compare(vectors[first]) < 0) first = i;
    });
    if (first == n) break;

    // Step 2c: add it to A, remove its ball from V.
    a.push_back(bits::TriVector::from_bits(vectors[first]));
    const std::uint64_t* row = balls.data() + first * words;
    for (std::size_t w = 0; w < words; ++w) live[w] &= ~row[w];
  }

  res.pre_merge_count = a.size();

  // Step 4: merge near candidates (dtilde <= merge_mult * D) until no
  // two remain close; '?' marks each merged disagreement.
  const auto merge_bound =
      static_cast<std::size_t>(std::floor(merge_mult * static_cast<double>(D)));
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < a.size() && !merged; ++i) {
      for (std::size_t j = i + 1; j < a.size() && !merged; ++j) {
        if (a[i].dtilde(a[j]) <= merge_bound) {
          bits::TriVector m = a[i].merge(a[j]);
          a.erase(a.begin() + static_cast<std::ptrdiff_t>(j));
          a.erase(a.begin() + static_cast<std::ptrdiff_t>(i));
          a.push_back(std::move(m));
          merged = true;
        }
      }
    }
  }

  std::sort(a.begin(), a.end(), [](const bits::TriVector& x, const bits::TriVector& y) {
    return x.lex_compare(y) < 0;
  });
  res.candidates = std::move(a);
  return res;
}

}  // namespace tmwia::core
