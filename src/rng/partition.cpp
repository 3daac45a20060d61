#include "tmwia/rng/partition.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace tmwia::rng {

Partition random_partition(const std::vector<std::uint32_t>& ids, std::size_t s, Rng& rng) {
  if (s == 0) throw std::invalid_argument("random_partition: s must be >= 1");
  Partition p;
  p.parts.resize(s);
  for (std::uint32_t id : ids) {
    p.parts[rng.uniform(s)].push_back(id);
  }
  return p;
}

Partition random_partition(std::size_t n, std::size_t s, Rng& rng) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return random_partition(ids, s, rng);
}

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> random_half_split(
    const std::vector<std::uint32_t>& ids, Rng& rng) {
  std::vector<std::uint32_t> perm = ids;
  shuffle(perm, rng);
  const std::size_t half = ids.size() / 2;
  std::vector<std::uint32_t> a(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<std::uint32_t> b(perm.begin() + static_cast<std::ptrdiff_t>(half), perm.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return {std::move(a), std::move(b)};
}

Partition assign_to_parts(const std::vector<std::uint32_t>& ids, std::size_t s,
                          std::size_t copies, Rng& rng) {
  if (s == 0) throw std::invalid_argument("assign_to_parts: s must be >= 1");
  if (copies > s) copies = s;
  Partition p;
  p.parts.resize(s);
  std::vector<std::uint32_t> chosen;
  for (std::uint32_t id : ids) {
    chosen.clear();
    // copies << s in all our uses, so rejection sampling is cheap.
    while (chosen.size() < copies) {
      const auto part = static_cast<std::uint32_t>(rng.uniform(s));
      if (std::find(chosen.begin(), chosen.end(), part) == chosen.end()) {
        chosen.push_back(part);
      }
    }
    for (std::uint32_t part : chosen) p.parts[part].push_back(id);
  }
  return p;
}

std::vector<std::uint32_t> sample_without_replacement(std::size_t n, std::size_t k, Rng& rng) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Floyd's algorithm: k uniform draws, each marked in a packed bitmap
  // (a draw already marked takes j instead), so the loop is O(k).
  // RSelect calls this once per candidate pair. The marks are the
  // sample: walking them emits it in ascending order with no sort. A
  // second bitmap keeps one bit per word of marks, so the walk visits
  // only marked words (a few flips in a long row stay cheap), and it
  // clears both bitmaps for this thread's next call.
  std::vector<std::uint32_t> out;
  out.reserve(k);  // before any mark: nothing below throws
  static thread_local std::vector<std::uint64_t> marks;
  static thread_local std::vector<std::uint64_t> marked_words;
  const std::size_t words = n / 64 + (n % 64 != 0 ? 1 : 0);
  if (marks.size() < words) {
    marked_words.resize(words / 64 + 1, 0);  // grown first: marks never outsize it
    marks.resize(words, 0);
  }
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = rng.uniform(j + 1);
    if (((marks[t / 64] >> (t % 64)) & 1u) != 0) t = j;
    marks[t / 64] |= std::uint64_t{1} << (t % 64);
    marked_words[t / 4096] |= std::uint64_t{1} << (t / 64 % 64);
  }
  for (std::size_t s = 0; out.size() < k; ++s) {
    for (std::uint64_t ws = std::exchange(marked_words[s], 0); ws != 0; ws &= ws - 1) {
      const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(ws));
      for (std::uint64_t bits = std::exchange(marks[w], 0); bits != 0; bits &= bits - 1) {
        out.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  return out;
}

}  // namespace tmwia::rng
