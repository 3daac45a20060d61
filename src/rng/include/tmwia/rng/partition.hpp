// Random partitions — the combinatorial workhorses of the paper.
//
// * `random_partition(n, s)`: each coordinate/object independently and
//   uniformly lands in one of s parts. This is exactly the partition of
//   Lemma 4.1 (Small Radius step 1a) and of Large Radius step 1.
// * `random_half_split(ids)`: a uniformly random half/half split, used
//   by Zero Radius step 2 to halve both the players and the objects.
// * `assign_to_parts(...)`: the Large Radius step 1 *player* assignment,
//   where each player joins `copies` uniformly chosen parts so that all
//   parts receive enough players (Lemma 5.5).
#pragma once

#include <cstdint>
#include <vector>

#include "tmwia/rng/rng.hpp"

namespace tmwia::rng {

/// Result of an s-way partition of items 0..n-1: `parts[i]` lists the
/// items of part i in ascending order.
struct Partition {
  std::vector<std::vector<std::uint32_t>> parts;
};

/// i.i.d.-uniform s-way partition of the items in `ids` (Lemma 4.1).
/// Parts may be empty; that is faithful to the lemma's model.
Partition random_partition(const std::vector<std::uint32_t>& ids, std::size_t s, Rng& rng);

/// Convenience overload partitioning 0..n-1.
Partition random_partition(std::size_t n, std::size_t s, Rng& rng);

/// Uniformly random split of `ids` into two halves (sizes differ by at
/// most 1), preserving ascending order inside each half. Zero Radius
/// step 2.
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> random_half_split(
    const std::vector<std::uint32_t>& ids, Rng& rng);

/// Assign each of the items in `ids` to `copies` distinct parts chosen
/// uniformly among s parts (Large Radius step 1 player assignment).
/// Returns per-part member lists; an item appears in `copies` parts.
Partition assign_to_parts(const std::vector<std::uint32_t>& ids, std::size_t s,
                          std::size_t copies, Rng& rng);

/// In-place Fisher–Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

/// `k` distinct indices sampled uniformly from 0..n-1 (ascending order).
/// Used by RSelect's coordinate sampling. Requires k <= n.
std::vector<std::uint32_t> sample_without_replacement(std::size_t n, std::size_t k, Rng& rng);

}  // namespace tmwia::rng
