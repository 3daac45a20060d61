#include "tmwia/core/select.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::core {
namespace {

// Select runs inside parallel player code, so it reports through
// sharded counters only (summation commutes; see obs/metrics.hpp).
struct SelectMetrics {
  obs::MetricsRegistry::Counter calls =
      obs::MetricsRegistry::global().counter("core.select.calls");
  obs::MetricsRegistry::Counter probes =
      obs::MetricsRegistry::global().counter("core.select.probes");
  obs::MetricsRegistry::Histogram candidates = obs::MetricsRegistry::global().histogram(
      "core.select.candidates", obs::MetricsRegistry::pow2_bounds(20));
};

const SelectMetrics& select_metrics() {
  static const SelectMetrics m;
  return m;
}

// Both overloads share one engine. The candidate set is abstracted as
// two word-planes per candidate: value words and known words (known ==
// nullptr means fully known, the BitVector case). The probe order is
// identical to the historical per-coordinate scan: a monotone cursor
// visits coordinates ascending and probes exactly those that
// distinguish among the currently-alive candidates — but instead of an
// O(k) scan per coordinate, alive candidates are aggregated into two
// word-parallel masks (any0 = some alive candidate asserts 0, any1 =
// some alive candidate asserts 1) whose AND marks every distinguishing
// coordinate of the current alive set at once. The masks only change
// when a candidate is eliminated (at most k-1 times), so rebuilds are
// O(k * words) in total, versus O(m * k) single-bit reads before.
struct CandidateView {
  const std::uint64_t* value;
  const std::uint64_t* known;  // nullptr = all coordinates known
};

// Select runs millions of times per experiment on small candidate
// sets; per-call heap buffers would dominate it. Each thread keeps one
// scratch set that is re-sized (capacity retained) per call. Probe
// callbacks never re-enter Select (the only nested-Select shape —
// Large Radius virtual probes — bottoms out in plain oracle probes),
// which makes a single buffer per thread safe.
struct SelectScratch {
  std::vector<CandidateView> views;
  std::vector<bool> alive;
  std::vector<std::size_t> disagreements;
  std::vector<std::uint64_t> any0;
  std::vector<std::uint64_t> any1;
};

SelectScratch& select_scratch() {
  thread_local SelectScratch s;
  return s;
}

template <typename LexCmp>
SelectResult select_engine(const std::vector<CandidateView>& cand, std::size_t m,
                           std::size_t nw, std::size_t D, const ProbeFn& probe,
                           const LexCmp& lex_less) {
  const std::size_t k = cand.size();
  SelectResult res;
  auto& scratch = select_scratch();
  auto& alive = scratch.alive;
  auto& disagreements = scratch.disagreements;
  auto& any0 = scratch.any0;
  auto& any1 = scratch.any1;
  alive.assign(k, true);
  disagreements.assign(k, 0);
  any0.resize(nw);
  any1.resize(nw);
  const auto rebuild = [&] {
    std::fill(any0.begin(), any0.end(), 0);
    std::fill(any1.begin(), any1.end(), 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (!alive[i]) continue;
      const auto& c = cand[i];
      if (c.known == nullptr) {
        for (std::size_t w = 0; w < nw; ++w) {
          any0[w] |= ~c.value[w];
          any1[w] |= c.value[w];
        }
      } else {
        for (std::size_t w = 0; w < nw; ++w) {
          any0[w] |= c.known[w] & ~c.value[w];
          any1[w] |= c.known[w] & c.value[w];
        }
      }
    }
    // For fully-known candidates ~value spills ones into tail bits
    // beyond m; mask them so the cursor never visits a phantom
    // coordinate.
    const std::size_t rem = m % 64;
    if (rem != 0 && nw > 0) {
      const std::uint64_t tail = (std::uint64_t{1} << rem) - 1;
      any0[nw - 1] &= tail;
      any1[nw - 1] &= tail;
    }
  };
  rebuild();

  std::size_t alive_count = k;
  for (std::size_t w = 0; w < nw && alive_count > 1; ++w) {
    std::uint64_t dmask = any0[w] & any1[w];
    while (dmask != 0 && alive_count > 1) {
      const int bit_pos = std::countr_zero(dmask);
      const std::size_t j = w * 64 + static_cast<std::size_t>(bit_pos);
      const bool bit = probe(static_cast<std::uint32_t>(j));
      ++res.probes;
      const std::uint64_t jbit = std::uint64_t{1} << bit_pos;
      bool eliminated = false;
      for (std::size_t i = 0; i < k; ++i) {
        if (!alive[i]) continue;
        const auto& c = cand[i];
        if (c.known != nullptr && (c.known[w] & jbit) == 0) continue;
        if (((c.value[w] & jbit) != 0) != bit) {
          if (++disagreements[i] > D) {
            alive[i] = false;
            --alive_count;
            eliminated = true;
          }
        }
      }
      // Coordinates at or below j are done; eliminations shrink the
      // distinguishing set, so refresh the mask before moving on.
      const std::uint64_t done =
          bit_pos == 63 ? ~std::uint64_t{0} : ((jbit << 1) - 1);
      if (eliminated) rebuild();
      dmask = any0[w] & any1[w] & ~done;
    }
  }

  // Step 2: fewest observed disagreements wins; ties break to the
  // lexicographically first vector. Elimination always leaves at least
  // one survivor (see SelectResult doc), and survivors have strictly
  // fewer observed disagreements than eliminated candidates, so
  // minimizing over everyone is equivalent to minimizing over the
  // survivors.
  std::size_t best_i = 0;
  for (std::size_t i = 1; i < k; ++i) {
    if (disagreements[i] < disagreements[best_i] ||
        (disagreements[i] == disagreements[best_i] && lex_less(i, best_i) < 0)) {
      best_i = i;
    }
  }
  res.index = best_i;
  res.observed_disagreements = disagreements[best_i];
  return res;
}

// Adoption steps call Select millions of times on one- or two-element
// candidate sets (a quorum vote usually leaves a single popular
// vector). These shapes skip the engine: k == 1 probes nothing by
// definition, and for k == 2 the distinguishing mask is just a ^ b
// word-by-word (tail bits cancel by the storage invariant), each probe
// disagrees with exactly one candidate, and the first elimination ends
// the scan — byte-for-byte the same probe sequence and result the
// engine produces.
SelectResult select_pair(const bits::BitVector& a, const bits::BitVector& b,
                         std::size_t D, const ProbeFn& probe) {
  SelectResult res;
  const std::uint64_t* aw = a.words().data();
  const std::uint64_t* bw = b.words().data();
  const std::size_t nw = a.words().size();
  std::size_t da = 0;
  std::size_t db = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    std::uint64_t dmask = aw[w] ^ bw[w];
    while (dmask != 0) {
      const int bit_pos = std::countr_zero(dmask);
      dmask &= dmask - 1;
      const bool bit =
          probe(static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(bit_pos)));
      ++res.probes;
      if (((aw[w] >> bit_pos) & 1u) == static_cast<std::uint64_t>(bit)) {
        if (++db > D) {
          res.index = 0;
          res.observed_disagreements = da;
          return res;
        }
      } else {
        if (++da > D) {
          res.index = 1;
          res.observed_disagreements = db;
          return res;
        }
      }
    }
  }
  if (db < da || (db == da && b.lex_compare(a) < 0)) {
    res.index = 1;
    res.observed_disagreements = db;
  } else {
    res.index = 0;
    res.observed_disagreements = da;
  }
  return res;
}

}  // namespace

void charge_select(std::size_t candidates, std::size_t probes) {
  const auto& metrics = select_metrics();
  metrics.calls.inc();
  metrics.candidates.observe(candidates);
  if (candidates == 1) return;  // a singleton probes nothing
  metrics.probes.add(probes);
  obs::profile_cost(obs::Cost::kProbes, probes);
}

SelectResult select_closest(const std::vector<bits::TriVector>& candidates, std::size_t D,
                            const ProbeFn& probe) {
  if (candidates.empty()) {
    throw std::invalid_argument("select_closest: empty candidate set");
  }
  const std::size_t k = candidates.size();
  const std::size_t m = candidates[0].size();
  for (const auto& c : candidates) {
    if (c.size() != m) throw std::invalid_argument("select_closest: ragged candidates");
  }
  if (k == 1) {  // no distinguishing coordinates, no probes
    charge_select(1, 0);
    return {};
  }

  auto& views = select_scratch().views;
  views.clear();
  views.reserve(k);
  for (const auto& c : candidates) {
    views.push_back({c.value_words().data(), c.known_words().data()});
  }
  auto res = select_engine(
      views, m, candidates[0].value_words().size(), D, probe,
      [&](std::size_t a, std::size_t b) {
        return candidates[a].lex_compare(candidates[b]);
      });
  charge_select(k, res.probes);
  return res;
}

SelectResult select_uncharged(const std::vector<bits::BitVector>& candidates, std::size_t D,
                              const ProbeFn& probe) {
  if (candidates.empty()) {
    throw std::invalid_argument("select_closest: empty candidate set");
  }
  const std::size_t k = candidates.size();
  const std::size_t m = candidates[0].size();
  for (const auto& c : candidates) {
    if (c.size() != m) throw std::invalid_argument("select_closest: ragged candidates");
  }
  if (k == 1) return {};  // no distinguishing coordinates, no probes
  if (k == 2) return select_pair(candidates[0], candidates[1], D, probe);

  auto& views = select_scratch().views;
  views.clear();
  views.reserve(k);
  for (const auto& c : candidates) {
    views.push_back({c.words().data(), nullptr});
  }
  return select_engine(views, m, candidates[0].words().size(), D, probe,
                       [&](std::size_t a, std::size_t b) {
                         return candidates[a].lex_compare(candidates[b]);
                       });
}

SelectResult select_closest(const std::vector<bits::BitVector>& candidates, std::size_t D,
                            const ProbeFn& probe) {
  const auto res = select_uncharged(candidates, D, probe);
  charge_select(candidates.size(), res.probes);
  return res;
}

}  // namespace tmwia::core
