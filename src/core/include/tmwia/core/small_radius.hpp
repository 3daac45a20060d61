// Algorithm Small Radius (Fig. 4): reconstruction for communities of
// small diameter D (the main algorithm invokes it with D = O(log n)).
//
// K independent iterations; each partitions the objects into
// s = Theta(D^{3/2}) random parts and runs Zero Radius on every part.
// Lemma 4.1 shows that with constant probability *every* part
// simultaneously has >= alpha*n/5 players agreeing exactly on it, so
// some iteration succeeds w.h.p. Step 1c stitches each player's closest
// popular vector per part (Select with bound D); step 2 picks the best
// of the K stitched vectors (Select with bound 5D).
//
// Theorem 4.4: outputs within 5D of the truth for every typical player,
// in O(K * D^{3/2} (D + log n) / alpha) probing rounds.
//
// Schedule: the s Zero Radius runs of an iteration are independent
// (disjoint objects, the same players). When every part is a single
// Zero Radius leaf and no observer can see a player's probe order (the
// oracle is order_free()), the iteration runs as three pool passes
// over all s parts: every player's leaf probes, then the s votes, then
// the Selects. Pass 1 is one ProbeOracle::probe_set per player over
// the iteration's objects in part order, so each part's leaf row is a
// range of the result. A player has then probed every object of each
// part, so a Select's probes return the player's own leaf bits and its
// decision depends only on the leaf row: pass 3 runs one Select per
// distinct leaf row of each part, and every player replays all its
// rows' probes through the oracle as one probe_block and charges each
// part's Select as its own. Otherwise — a part above the leaf
// threshold, a flight recorder or a fault injector — it runs one part
// at a time, each player running its own Selects. Both schedules stitch
// a player's row in part order, a word copy per part, and put it in
// position order with one gather; both probe the same (player, object)
// pairs and leave the same ledgers, metrics and outputs (DESIGN
// §13.6). A part's Zero Radius posts its internal nodes' outputs under
// <prefix>/<t>/<i>/zr/<tag>, the prefix the caller names; a leaf posts
// nothing (its outputs are its probe results), so an all-leaf
// iteration leaves the board as it found it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/bits/bitvector.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::core {

using matrix::PlayerId;

struct SmallRadiusResult {
  /// Output vector per player, aligned with the `players` argument and
  /// the `objects` argument's coordinate order.
  std::vector<bits::BitVector> outputs;
  /// Object parts used in the last iteration (diagnostics).
  std::size_t parts = 0;
  /// Iterations executed (the effective K).
  std::size_t iterations = 0;
};

/// Run Small Radius for `players` over `objects` with community
/// fraction `alpha` and distance bound `D`. `n_total` feeds the
/// log-driven constants (K and the Zero Radius leaf threshold); pass
/// players.size() when running standalone. `channel_prefix` names the
/// run's board channels: find_preferences passes "sr", and Large
/// Radius's group l "lr/group/<l>/sr", so concurrent groups never write
/// the same (channel, player) row.
SmallRadiusResult small_radius(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                               const std::vector<PlayerId>& players,
                               const std::vector<std::uint32_t>& objects, double alpha,
                               std::size_t D, const Params& params, rng::Rng rng,
                               std::size_t n_total, const std::string& channel_prefix);

/// Number of object parts s for a given D (Lemma 4.1 scaling).
std::size_t small_radius_parts(std::size_t D, const Params& params);

}  // namespace tmwia::core
