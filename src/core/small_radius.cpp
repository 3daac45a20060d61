#include "tmwia/core/small_radius.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <utility>

#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/partition.hpp"

namespace tmwia::core {
namespace {

/// One part of an iteration's partition, and Step 1b's vote on it.
struct Part {
  std::vector<std::uint32_t> objects;       ///< the part's object ids
  std::size_t voters = 0;                   ///< surviving players who voted
  std::vector<bits::BitVector> candidates;  ///< U_i, lexicographic
  /// The part's coordinates in a player's part-order row: [first,
  /// first + objects.size()).
  std::size_t first = 0;

  // The passes' state (DESIGN §13.6).
  /// The leaf rows, row_words() words per player. Pass 1 holds all s
  /// parts' rows at once; one buffer per part stores a row of up to 64
  /// objects in 8 bytes, where a BitVector takes 40.
  std::vector<std::uint64_t> leaf_words;
  /// The vote's grouping of the leaf rows: distinct[r] is a player
  /// holding the r-th distinct row, and row_of[pi] is player pi's r.
  std::vector<std::uint32_t> distinct;
  std::vector<std::uint32_t> row_of;
  /// The Select memo, one entry per distinct row (parts with >= 2
  /// candidates): the winner, and the probed coordinates as a mask of
  /// row_words() words.
  std::vector<std::uint32_t> winner;
  std::vector<std::uint64_t> probed;

  [[nodiscard]] std::size_t row_words() const {
    return bits::BitVector::word_count(objects.size());
  }

  /// Step 1b's outcome: `popular` (a tally over `voters` players)
  /// becomes the candidates.
  void take_vote(std::size_t n_voters, std::vector<billboard::VotedVector> popular) {
    voters = n_voters;
    for (auto& vv : popular) candidates.push_back(std::move(vv.vec));
  }
};

/// Bits [from, from + len) of `row` as the low len bits of the
/// word_count(len) words at `out`, the bits above len zero.
void copy_bits_out(std::span<const std::uint64_t> row, std::size_t from, std::size_t len,
                   std::uint64_t* out) {
  const std::size_t w0 = from / 64;
  const std::size_t shift = from % 64;
  const std::size_t nw = bits::BitVector::word_count(len);
  for (std::size_t w = 0; w < nw; ++w) {
    std::uint64_t word = row[w0 + w] >> shift;
    if (shift != 0 && w0 + w + 1 < row.size()) word |= row[w0 + w + 1] << (64 - shift);
    out[w] = word;
  }
  if (len % 64 != 0) out[nw - 1] &= (std::uint64_t{1} << (len % 64)) - 1;
}

/// ORs `piece`, a row whose bits above its width are zero, into bits
/// [at, at + width) of `row`.
void copy_bits_in(std::span<const std::uint64_t> piece, std::size_t at, bits::BitVector& row) {
  const std::size_t w0 = at / 64;
  const std::size_t shift = at % 64;
  const auto words = row.words();
  for (std::size_t w = 0; w < piece.size(); ++w) {
    row.set_word(w0 + w, words[w0 + w] | (piece[w] << shift));
    if (shift != 0 && (piece[w] >> (64 - shift)) != 0) {
      row.set_word(w0 + w + 1, words[w0 + w + 1] | (piece[w] >> (64 - shift)));
    }
  }
}

/// Step 1c's stitch, finished: `row`, a player's stitched row in part
/// order, in position order (bit pos is bit in_order[pos] of `row`).
bits::BitVector in_position_order(const bits::BitVector& row,
                                  std::span<const std::uint32_t> in_order) {
  const std::size_t m = in_order.size();
  bits::BitVector out(m);
  std::uint64_t word = 0;
  // tmwia-lint: allow(per-bit-loop) a random partition scatters each part's coordinates over the positions, so a position's bit comes from anywhere in the part-order row
  for (std::size_t pos = 0; pos < m; ++pos) {
    word |= static_cast<std::uint64_t>(row.get(in_order[pos])) << (pos % 64);
    if (pos % 64 == 63 || pos + 1 == m) {
      out.set_word(pos / 64, word);
      word = 0;
    }
  }
  return out;
}

}  // namespace

std::size_t small_radius_parts(std::size_t D, const Params& params) {
  if (D == 0) return 1;
  const double s = params.sr_s_mult * std::pow(static_cast<double>(D), 1.5);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(s)));
}

SmallRadiusResult small_radius(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                               const std::vector<PlayerId>& players,
                               const std::vector<std::uint32_t>& objects, double alpha,
                               std::size_t D, const Params& params, rng::Rng rng,
                               std::size_t n_total, const std::string& channel_prefix) {
  require_alpha(alpha, "small_radius");
  if (players.empty()) return {};

  SmallRadiusResult res;
  const std::size_t n = players.size();
  const std::size_t m = objects.size();
  const std::size_t K =
      params.sr_K != 0
          ? params.sr_K
          : static_cast<std::size_t>(
                std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(n_total, 4)))));
  // More parts than objects only creates empty parts.
  const std::size_t s = std::min(small_radius_parts(D, params), std::max<std::size_t>(1, m));
  res.parts = s;
  res.iterations = K;

  const double alpha_zr = alpha / params.sr_vote_div;
  // Zero Radius on a part is a single leaf when min(|P|, |part|) is
  // below this (zero_radius_bits passes |P| as its n).
  const std::size_t leaf = zero_radius_leaf_threshold(n, alpha_zr, params);

  // Degradation: crashed/degraded players are excluded from votes and
  // skipped when probing; quorum thresholds are taken over survivors.
  auto* injector = oracle.fault_injector();
  const auto failed = [injector](PlayerId p) {
    return injector != nullptr && injector->is_failed(p);
  };

  // u[t][i] = player i's stitched candidate from iteration t.
  std::vector<std::vector<bits::BitVector>> stitched(
      K, std::vector<bits::BitVector>(n, bits::BitVector(m)));

  // Step 1b's popularity bar: U_i is the vectors output by at least
  // alpha/5 of the *surviving* players (quorum over survivors;
  // identical to the paper's threshold when nobody failed).
  const auto quorum = [&](std::size_t voters) {
    return static_cast<std::uint32_t>(std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(alpha * static_cast<double>(voters) / params.sr_vote_div))));
  };
  // Step 1b on one part, given every player's Zero Radius output on it.
  const auto vote = [&](Part& part, std::span<const bits::BitVector> zr_out) {
    std::vector<bits::BitVector> survivors;
    std::span<const bits::BitVector> votable = zr_out;
    if (injector != nullptr) {
      survivors.reserve(n);
      for (std::size_t pi = 0; pi < n; ++pi) {
        if (!failed(players[pi])) survivors.push_back(zr_out[pi]);
      }
      votable = survivors;
    }
    part.take_vote(votable.size(), billboard::tally(votable, quorum(votable.size())));
  };

  // Step 1c for players[pi] on one part: the closest popular vector
  // within distance D, or nullptr when no vector met the popularity bar
  // (that player is not typical in this part, keeps its own Zero Radius
  // output and is corrected by step 2 anyway). Failed players stop
  // probing; their stitched rows keep the Zero Radius best effort.
  const auto adopt = [&](std::size_t pi, const Part& part) -> const bits::BitVector* {
    const PlayerId p = players[pi];
    if (part.candidates.empty() || failed(p)) return nullptr;
    // A quorum vote usually leaves one popular vector; Select over a
    // singleton probes nothing and picks it — skip the call (identical
    // output and probe count).
    if (part.candidates.size() == 1) return &part.candidates[0];
    const auto sel = select_closest(part.candidates, D, [&](std::uint32_t j) {
      return oracle.probe_resilient(p, part.objects[j]);
    });
    return &part.candidates[sel.index];
  };

  for (std::size_t t = 0; t < K; ++t) {
    // Step 1a: random partition of object *positions* into s parts
    // (shared coins — everyone sees the same partition).
    rng::Rng part_rng = rng.split(t, 0xA11);
    const auto partition = rng::random_partition(m, s, part_rng);

    // A player's stitched row is built in part order, part i at
    // [first, first + |part|) of part_order, and coordinate
    // in_order[pos] of it is position pos.
    std::vector<Part> parts(s);
    std::vector<std::uint32_t> part_order;
    part_order.reserve(m);
    std::vector<std::uint32_t> in_order(m);
    bool all_leaves = oracle.order_free();
    for (std::size_t i = 0; i < s; ++i) {
      Part& part = parts[i];
      part.first = part_order.size();
      for (const std::uint32_t pos : partition.parts[i]) {
        in_order[pos] = static_cast<std::uint32_t>(part_order.size());
        part_order.push_back(objects[pos]);
      }
      part.objects.assign(part_order.begin() + static_cast<std::ptrdiff_t>(part.first),
                          part_order.end());
      if (!part.objects.empty() && std::min(n, part.objects.size()) >= leaf) {
        all_leaves = false;
      }
    }
    if (!all_leaves) {
      // One part at a time. Step 1b: Zero Radius on the part with
      // frequency alpha/5, then the vote; Step 1c: every player's
      // Select, its outcome written to the player's row in part order.
      for (std::size_t i = 0; i < s; ++i) {
        Part& part = parts[i];
        if (part.objects.empty()) continue;
        const auto zr_out = zero_radius_bits(
            oracle, board, players, part.objects, alpha_zr, params, rng.split(t, 0xB0B, i),
            channel_prefix + "/" + std::to_string(t) + "/" + std::to_string(i));
        vote(part, zr_out);
        // Per-part community size; serial drain point for the recorder.
        if (auto* rec = oracle.recorder()) {
          rec->note("sr.part", part.voters, part.candidates.size());
        }
        engine::parallel_for(0, n, [&](std::size_t pi) {
          const bits::BitVector* chosen = adopt(pi, part);
          copy_bits_in((chosen != nullptr ? *chosen : zr_out[pi]).words(), part.first,
                       stitched[t][pi]);
        });
      }
      engine::parallel_for(0, n, [&](std::size_t pi) {
        auto& row = stitched[t][pi];
        row = in_position_order(row, in_order);
      });
      continue;
    }

    // Every part is one Zero Radius leaf, and nobody can see the order
    // a player's probes land in: run the s parts at once, as three pool
    // passes (DESIGN §13.6). Each player probes the same pairs as the
    // per-part loop, its leaves first; every ledger and output is the
    // per-part loop's, and neither posts (a leaf's outputs are its probe
    // results).
    //
    // Pass 1: every player probes the iteration's objects in part order
    // as one set (each part's leaf of Fig. 2 step 1), and each part's
    // leaf row is a range of the result. The set and the rows' buffers
    // are built here, on the caller.
    for (auto& part : parts) {
      part.leaf_words.assign(n * part.row_words(), 0);
      part.row_of.assign(part.objects.empty() ? 0 : n, 0);
    }
    const billboard::ProbeOracle::ObjectSet leaf_set(oracle, std::move(part_order));
    engine::parallel_for(0, n, [&](std::size_t pi) {
      bits::BitVector row(m);
      oracle.probe_set(players[pi], leaf_set, row);
      for (auto& part : parts) {
        copy_bits_out(row.words(), part.first, part.objects.size(),
                      part.leaf_words.data() + pi * part.row_words());
      }
    });
    // Pass 2: the s votes, each grouping its part's leaf rows once.
    engine::parallel_for(
        0, s,
        [&](std::size_t i) {
          Part& part = parts[i];
          if (part.objects.empty()) return;
          part.take_vote(n, billboard::tally({part.leaf_words, part.objects.size()}, quorum(n),
                                             part.distinct, part.row_of));
        },
        1);
    // Pass 3, the Selects, in two loops. First one Select per distinct
    // leaf row of every part with a choice to make: a player has probed
    // every object of the part, so a re-probe returns the row's own bit,
    // and Select reads nothing else. Players with equal rows decide
    // alike, and the coordinates Select probes (ascending, each at most
    // once) fit a mask.
    std::vector<std::size_t> first_select(s + 1, 0);
    for (std::size_t i = 0; i < s; ++i) {
      Part& part = parts[i];
      const std::size_t rows = part.candidates.size() >= 2 ? part.distinct.size() : 0;
      part.winner.assign(rows, 0);
      part.probed.assign(rows * part.row_words(), 0);
      first_select[i + 1] = first_select[i] + rows;
    }
    engine::parallel_for(0, first_select[s], [&](std::size_t k) {
      const auto i = static_cast<std::size_t>(
          std::upper_bound(first_select.begin(), first_select.end(), k) -
          first_select.begin() - 1);
      Part& part = parts[i];
      const std::size_t r = k - first_select[i];
      const std::size_t nw = part.row_words();
      const std::uint64_t* row = &part.leaf_words[part.distinct[r] * nw];
      std::uint64_t* probed = &part.probed[r * nw];
      const auto sel = select_uncharged(part.candidates, D, [&](std::uint32_t j) {
        probed[j / 64] |= std::uint64_t{1} << (j % 64);
        return ((row[j / 64] >> (j % 64)) & 1U) != 0;
      });
      part.winner[r] = static_cast<std::uint32_t>(sel.index);
    });
    // Then every player replays its rows' Selects — the same probes
    // through the oracle, as one block in part order, and the same
    // charge per part as its own Select — and stitches its row in part
    // order: each part's winner, or the player's own leaf row where no
    // vector reached the quorum.
    engine::parallel_for(0, n, [&](std::size_t pi) {
      bits::BitVector& row = stitched[t][pi];
      std::vector<std::uint32_t> replay;
      for (const auto& part : parts) {
        const std::size_t k = part.candidates.size();
        const std::size_t nw = part.row_words();
        if (k == 0) {
          copy_bits_in({part.leaf_words.data() + pi * nw, nw}, part.first, row);
          continue;
        }
        std::size_t chosen = 0;
        if (k >= 2) {
          const std::size_t r = part.row_of[pi];
          const std::size_t before = replay.size();
          for (std::size_t w = 0; w < nw; ++w) {
            for (std::uint64_t left = part.probed[r * nw + w]; left != 0; left &= left - 1) {
              const auto j = w * 64 + static_cast<std::size_t>(std::countr_zero(left));
              replay.push_back(part.objects[j]);
            }
          }
          charge_select(k, replay.size() - before);
          chosen = part.winner[r];
        }
        copy_bits_in(part.candidates[chosen].words(), part.first, row);
      }
      if (!replay.empty()) {
        bits::BitVector results(replay.size());
        oracle.probe_block(players[pi], replay, results);
      }
      row = in_position_order(row, in_order);
    });
  }

  // Step 2: every player picks the best of its K stitched candidates
  // with Select bound 5D.
  const auto final_bound = static_cast<std::size_t>(
      std::ceil(params.sr_final_mult * static_cast<double>(D)));
  res.outputs.assign(n, bits::BitVector(m));
  engine::parallel_for(0, n, [&](std::size_t pi) {
    const PlayerId p = players[pi];
    if (failed(p)) {
      // Can't probe to compare iterations: keep the first iteration's
      // best effort rather than an empty row.
      res.outputs[pi] = stitched[0][pi];
      return;
    }
    std::vector<bits::BitVector> candidates;
    candidates.reserve(K);
    // stitched is dead after this pass; moving the rows saves K
    // heap-backed copies per player.
    for (std::size_t t = 0; t < K; ++t) candidates.push_back(std::move(stitched[t][pi]));
    const auto sel = select_closest(candidates, final_bound, [&](std::uint32_t j) {
      return oracle.probe_resilient(p, objects[j]);
    });
    res.outputs[pi] = std::move(candidates[sel.index]);
  });

  return res;
}

}  // namespace tmwia::core
