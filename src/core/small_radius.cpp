#include "tmwia/core/small_radius.hpp"

#include <cmath>
#include <string>

#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/partition.hpp"

namespace tmwia::core {

std::size_t small_radius_parts(std::size_t D, const Params& params) {
  if (D == 0) return 1;
  const double s = params.sr_s_mult * std::pow(static_cast<double>(D), 1.5);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(s)));
}

SmallRadiusResult small_radius(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                               const std::vector<PlayerId>& players,
                               const std::vector<std::uint32_t>& objects, double alpha,
                               std::size_t D, const Params& params, rng::Rng rng,
                               std::size_t n_total) {
  require_alpha(alpha, "small_radius");
  if (players.empty()) return {};

  SmallRadiusResult res;
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

  // Degradation: crashed/degraded players are excluded from votes and
  // skipped when probing; quorum thresholds are taken over survivors.
  auto* injector = oracle.fault_injector();
  const auto failed = [injector](PlayerId p) {
    return injector != nullptr && injector->is_failed(p);
  };

  // u[t][i] = player i's stitched candidate from iteration t.
  std::vector<std::vector<bits::BitVector>> stitched(
      K, std::vector<bits::BitVector>(players.size(), bits::BitVector(m)));

  for (std::size_t t = 0; t < K; ++t) {
    // Step 1a: random partition of object *positions* into s parts
    // (shared coins — everyone sees the same partition).
    rng::Rng part_rng = rng.split(t, 0xA11);
    const auto partition = rng::random_partition(m, s, part_rng);

    for (std::size_t i = 0; i < s; ++i) {
      const auto& positions = partition.parts[i];
      if (positions.empty()) continue;
      std::vector<std::uint32_t> part_objects;
      part_objects.reserve(positions.size());
      for (std::uint32_t pos : positions) part_objects.push_back(objects[pos]);

      // Step 1b: Zero Radius on this part with frequency alpha/5.
      const std::string prefix = "sr/" + std::to_string(t) + "/" + std::to_string(i);
      const auto zr_out = zero_radius_bits(oracle, board, players, part_objects, alpha_zr,
                                           params, rng.split(t, 0xB0B, i), prefix);

      // U_i: vectors output by at least alpha/5 of the *surviving*
      // players (quorum over survivors; identical to the paper's
      // threshold when nobody failed).
      std::vector<bits::BitVector> votable;
      votable.reserve(players.size());
      for (std::size_t pi = 0; pi < players.size(); ++pi) {
        if (!failed(players[pi])) votable.push_back(zr_out[pi]);
      }
      const auto min_votes = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(
                 alpha * static_cast<double>(votable.size()) / params.sr_vote_div)));
      const auto voted = billboard::tally(votable, static_cast<std::uint32_t>(min_votes));
      std::vector<bits::BitVector> candidates;
      candidates.reserve(voted.size());
      for (const auto& vv : voted) candidates.push_back(vv.vec);
      // Per-part community size; serial drain point for the recorder.
      if (auto* rec = oracle.recorder()) {
        rec->note("sr.part", votable.size(), candidates.size());
      }

      // Every player scatters through the same position set: build the
      // part's mask once and use the word-parallel deposit, unless the
      // part is so sparse that per-coordinate writes touch fewer words.
      bits::BitVector pos_mask;
      const bool use_mask = positions.size() >= bits::BitVector::word_count(m) / 2;
      if (use_mask) {
        pos_mask = bits::BitVector(m);
        for (std::uint32_t pos : positions) pos_mask.set(pos, true);
      }

      // Step 1c: each player adopts the closest popular vector within
      // distance D (falling back to its own Zero Radius output when no
      // vector met the popularity bar — that player is not typical in
      // this part and its pick is corrected by step 2 anyway). Failed
      // players stop probing; their stitched rows keep the Zero Radius
      // best effort.
      engine::parallel_for(0, players.size(), [&](std::size_t pi) {
        const PlayerId p = players[pi];
        const bits::BitVector* chosen = &zr_out[pi];
        if (!candidates.empty() && !failed(p)) {
          if (candidates.size() == 1) {
            // A quorum vote usually leaves one popular vector; Select
            // over a singleton probes nothing and picks it — skip the
            // call (identical output and probe count).
            chosen = &candidates[0];
          } else {
            const auto sel = select_closest(candidates, D, [&](std::uint32_t j) {
              return oracle.probe_resilient(p, part_objects[j]);
            });
            chosen = &candidates[sel.index];
          }
        }
        if (use_mask) {
          stitched[t][pi].scatter_masked(*chosen, pos_mask);
        } else {
          stitched[t][pi].scatter(*chosen, positions);
        }
      });
    }
  }

  // Step 2: every player picks the best of its K stitched candidates
  // with Select bound 5D.
  const auto final_bound = static_cast<std::size_t>(
      std::ceil(params.sr_final_mult * static_cast<double>(D)));
  res.outputs.assign(players.size(), bits::BitVector(m));
  engine::parallel_for(0, players.size(), [&](std::size_t pi) {
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
