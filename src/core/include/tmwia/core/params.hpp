// Tunable constants of the algorithm tower.
//
// The paper fixes constants for the proofs (leaf threshold 8c·ln n/α,
// s >= 100·D^{3/2} parts, vote fractions α/2 and α/5, stitch bound 5D).
// Those constants are asymptotically safe but far from tight; at
// benchable sizes (n <= 4096) the published values degenerate — e.g.
// s = 100·D^{3/2} > m turns every ZeroRadius instance into a leaf that
// probes everything. Every constant therefore lives here, with two
// profiles:
//  * Params::paper()     — the published constants, used by the tests
//                          that check the *bounds* (which only get
//                          easier with bigger constants);
//  * Params::practical() — scaled-down constants that expose the
//                          asymptotic regime at laptop scale, used by
//                          the experiments. EXPERIMENTS.md reports which
//                          profile each number was measured under.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace tmwia::core {

/// The one check of the community fraction: every entry point that
/// takes alpha (find_preferences, the unknown-D body, Small and Large
/// Radius, serve tenants) calls it before its first probe. Throws
/// std::invalid_argument unless 0 < alpha <= 1, so NaN fails too.
inline void require_alpha(double alpha, const char* where) {
  if (alpha > 0.0 && alpha <= 1.0) return;
  char got[32];
  std::snprintf(got, sizeof got, "%g", alpha);
  throw std::invalid_argument(std::string(where) + ": alpha must be in (0, 1], got " + got);
}

/// ceil(x) as a count, clamped to 2^63 first: a count derived from
/// 1/alpha overflows size_t for a tiny alpha, and one that large
/// already exceeds every instance. Below the clamp nothing changes.
inline std::size_t ceil_count(double x) {
  return static_cast<std::size_t>(std::ceil(std::min(x, 0x1p63)));
}

struct Params {
  // --- Zero Radius (Fig. 2) ---
  /// Leaf when min(|P|, |O|) < zr_leaf_c * ln(n) / alpha  (step 1).
  double zr_leaf_c = 8.0;
  /// Hard floor on the leaf threshold (degenerate-size guard).
  std::size_t zr_min_leaf = 2;
  /// Adopt vectors voted by >= zr_vote_frac * alpha * |P''| players
  /// (step 4; the paper uses alpha/2, i.e. 0.5).
  double zr_vote_frac = 0.5;

  // --- Small Radius (Fig. 4) ---
  /// s = max(1, ceil(sr_s_mult * D^1.5)) object parts (Lemma 4.1 uses
  /// 100; any constant with s = Theta(D^1.5) preserves the analysis
  /// shape, trading failure probability per iteration against cost).
  double sr_s_mult = 100.0;
  /// Confidence iterations K; 0 means ceil(log2 n) (the paper's K).
  std::size_t sr_K = 0;
  /// Vote threshold for U_i: alpha/sr_vote_div fraction (paper: 5).
  double sr_vote_div = 5.0;
  /// Step 1c Select bound = D; step 2 Select bound = sr_final_mult * D
  /// (paper: 5).
  double sr_final_mult = 5.0;

  // --- Coalesce (Fig. 6) ---
  /// Merge while dtilde(v, v') <= co_merge_mult * D (paper: 5).
  double co_merge_mult = 5.0;

  // --- Large Radius (Fig. 5) ---
  /// Number of object parts L = max(1, ceil(lr_parts_c * D / log2 n)).
  double lr_parts_c = 1.0;
  /// Per-part distance budget lambda = min(D, lr_lambda_mult * log2 n).
  double lr_lambda_mult = 1.0;
  /// Target players per part = lr_players_mult * log2(n) / alpha;
  /// each player joins enough parts to meet it in expectation.
  double lr_players_mult = 1.0;
  /// Coalesce distance parameter = lr_coalesce_mult * lambda. Typical
  /// players' per-group outputs sit within (2*sr_final_mult + 1)*lambda
  /// of each other (their Small Radius error is sr_final_mult*lambda
  /// each, plus their true distance <= lambda), hence the default 11.
  double lr_coalesce_mult = 11.0;
  /// Virtual-probe Select bound = lr_select_mult * (coalesce distance):
  /// Theorem 5.3 puts the unique representative within 2x the Coalesce
  /// distance of every typical player.
  double lr_select_mult = 2.0;

  // --- RSelect (Fig. 7) ---
  /// Probes per candidate pair = rs_c * log2 n (paper: c log n).
  double rs_c = 4.0;
  /// Loser threshold fraction (paper: 2/3).
  double rs_majority = 2.0 / 3.0;

  // --- Robustness (fault-injected runs) ---
  /// When a vote loses quorum (mass crash / post loss), orphaned
  /// adopters fall back to the surviving posts themselves; this caps
  /// how many distinct surviving vectors they are willing to Select
  /// among (most-supported first).
  std::size_t ft_orphan_candidates = 8;

  // --- Unknown D (Section 6) ---
  /// Distance guesses D = 0, 1, 2, 4, ... up to m.
  /// Final pick uses RSelect.

  /// The published constants.
  static Params paper() { return {}; }

  /// Laptop-scale constants: same Theta(.) shapes, smaller multipliers.
  /// zr_leaf_c cannot be cut as hard as the rest: the leaf threshold is
  /// what guarantees (via Chernoff) that every recursion node keeps
  /// >= alpha/2 typical players — at leaf_c = 2 a 32-player leaf fails
  /// that with a few percent probability and the corruption of a
  /// player's *own* half is never revisited higher in the tree. The
  /// lower vote fraction compensates on the other side (a popular-group
  /// miss needs a 4x deviation instead of 2x) at the price of a few
  /// more Select candidates.
  /// The Large Radius constants are the tightest squeeze: with
  /// n ~ 10^2..10^3 a group holds m/L ~ 10*log n objects, and random
  /// non-community vectors sit ~ m/(2L) ~ 5*log n apart, so the
  /// Coalesce distance (lr_coalesce_mult * lambda) must stay below that
  /// while still covering the typical players' output spread, and the
  /// merge bound (co_merge_mult * coalesce distance) must not bridge
  /// distinct communities. The published 11x/5x constants only separate
  /// once log n << m/L, i.e. at much larger n.
  static Params practical() {
    Params p;
    p.zr_leaf_c = 4.0;
    p.zr_vote_frac = 0.25;
    p.sr_s_mult = 2.0;
    p.sr_K = 4;
    p.lr_players_mult = 2.0;
    p.lr_coalesce_mult = 3.0;
    p.co_merge_mult = 1.5;
    p.rs_c = 6.0;
    return p;
  }
};

}  // namespace tmwia::core
