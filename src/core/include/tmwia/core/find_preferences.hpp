// The main algorithm (Fig. 1) and the Section 6 extensions.
//
//  * find_preferences            — known (alpha, D): dispatch to
//    Zero/Small/Large Radius by the size of D.
//  * find_preferences_unknown_d  — known alpha, unknown D: run the main
//    algorithm with guesses D = 0, 1, 2, 4, ..., m and let each player
//    pick among the O(log m) resulting candidates with RSelect
//    (Section 6.1). Costs a log factor, loses a constant in quality —
//    this is the algorithm of Theorem 1.1.
//  * anytime                     — unknown alpha too: phase j reruns
//    the unknown-D algorithm with alpha = 2^-j; at any stopping point
//    the output quality is close to the best achievable for the probes
//    spent so far ("anytime algorithm", Section 6).
//
// All three return a RunReport — one result type for the whole tower
// (outputs + cost accounting + the variant-specific detail for the
// algorithm that ran). None of them snapshots the metrics registry or
// writes a gauge: the caller that writes a metrics artifact does
// (tmwia::snapshot_with_oracle_totals, session.hpp).
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

/// Which branch of Fig. 1 ran.
enum class Branch : std::uint8_t { kZeroRadius, kSmallRadius, kLargeRadius };

/// One phase of the anytime algorithm (cumulative checkpoints).
struct AnytimePhase {
  double alpha = 1.0;
  std::uint64_t rounds = 0;        ///< cumulative rounds after this phase
  std::uint64_t total_probes = 0;  ///< cumulative probes after this phase
};

/// One entry of the run timeline: a phase boundary of the algorithm
/// tower with cumulative cost and — when a FlightRecorder with an
/// output evaluator was installed — output quality at that point.
/// Discrepancies are -1 when unknown (no recorder/evaluator): the
/// library never sees the planted matrix itself.
struct PhaseCheckpoint {
  std::string label;               ///< e.g. "fp:zero", "guess:d=4", "phase:2"
  std::uint64_t rounds = 0;        ///< cumulative rounds at the checkpoint
  std::uint64_t total_probes = 0;  ///< cumulative probes at the checkpoint
  double max_disc = -1.0;          ///< max Hamming distance to truth
  double mean_disc = -1.0;         ///< mean Hamming distance to truth
};

/// Degradation record of a supervised run: what the run gave up on
/// instead of aborting. Empty for a healthy run (and then omitted from
/// the report JSON).
struct DegradedInfo {
  std::vector<PlayerId> quarantined;     ///< strategies benched for good
  std::vector<std::string> unmet_phases; ///< phases that blew their round deadline
  [[nodiscard]] bool empty() const { return quarantined.empty() && unmet_phases.empty(); }
  bool operator==(const DegradedInfo&) const = default;
};

/// Unified result of every core entry point. The common fields
/// (outputs, rounds, total_probes) are always filled; the rest depends
/// on `algo`:
///  * kFixedD   — `branch` says which Fig. 1 branch ran;
///  * kUnknownD — `guesses` lists the D guesses that were run and
///    `chosen_d[i]` the guess player i adopted;
///  * kAnytime  — `phases` holds the per-phase cost/quality
///    checkpoints (rounds/total_probes mirror the last entry).
struct RunReport {
  enum class Algo : std::uint8_t { kFixedD, kUnknownD, kAnytime, kSupervised, kServe };

  Algo algo = Algo::kFixedD;
  /// Output vector per player (aligned with player ids, coordinates in
  /// object order).
  std::vector<bits::BitVector> outputs;
  /// Lockstep rounds this call consumed: max over players of probe
  /// invocations during the call.
  std::uint64_t rounds = 0;
  /// Total probe invocations across players during the call.
  std::uint64_t total_probes = 0;

  Branch branch = Branch::kZeroRadius;  ///< kFixedD only
  std::vector<std::size_t> chosen_d;    ///< kUnknownD: guess adopted per player
  std::vector<std::size_t> guesses;     ///< kUnknownD: guesses run (0, 1, 2, 4, ...)
  std::vector<AnytimePhase> phases;     ///< kAnytime: cumulative checkpoints

  /// Per-phase timeline of the run (every entry point fills it; the
  /// disc fields need an installed FlightRecorder evaluator).
  std::vector<PhaseCheckpoint> timeline;

  /// What a supervised run quarantined or left unmet (empty unless an
  /// engine::Supervisor degraded the run instead of aborting it).
  DegradedInfo degraded;

  /// Cost-attribution tree (obs::ProfileReport::to_json). The library
  /// leaves it empty: the caller that profiled the run renders its own
  /// obs::Profiler once the call has returned and every zone is closed
  /// (tmwia_cli sets it from the same tree as --prof). Pre-rendered
  /// JSON, spliced verbatim into to_json().
  std::string profile_json;
  /// SLO verdict (obs::SloReport::to_json) when a serve session ran
  /// under a watchdog; empty otherwise.
  std::string slo_json;

  /// One-line JSON object with the scalar results, the timeline, the
  /// variant detail (chosen_d/guesses/phases), and — when non-empty —
  /// the degraded, profile and slo sections. Outputs are *not*
  /// embedded — they have their own sink.
  [[nodiscard]] std::string to_json() const;
};

/// Fig. 1: main algorithm for known alpha and D over all players and
/// all objects of the oracle's matrix.
RunReport find_preferences(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                           double alpha, std::size_t D, const Params& params, rng::Rng rng);

/// Section 6: known alpha, unknown D (the Theorem 1.1 algorithm).
RunReport find_preferences_unknown_d(billboard::ProbeOracle& oracle,
                                     billboard::Billboard* board, double alpha,
                                     const Params& params, rng::Rng rng);

/// Orphan adoption (Section 6.1 RSelect over surviving outputs):
/// players flagged orphaned on the oracle's fault injector — by vote
/// quorum loss or by supervisor quarantine — re-select among the
/// most-supported surviving outputs; their own (possibly partial)
/// output competes too. `outputs[i]` belongs to `players[i]`. No-op
/// without an attached injector. Also called internally at the tail of
/// every find_preferences run.
void rescue_orphans(billboard::ProbeOracle& oracle, std::vector<bits::BitVector>& outputs,
                    const std::vector<PlayerId>& players, const Params& params,
                    const rng::Rng& rng);

/// The anytime keep-better merge (Section 6), exposed for incremental
/// refinement loops (the serve layer re-runs the unknown-D tower per
/// epoch and folds each result in through this): every live player runs
/// a 2-candidate RSelect between its current output and the challenger
/// and keeps the winner; players failed on the oracle's injector keep
/// their current output. Probes are charged through the oracle as
/// usual. `phase` tags the per-player RNG splits, so distinct phases
/// (or epochs) draw independent sample coordinates; `challenger[i]` may
/// be moved from.
void keep_better_outputs(billboard::ProbeOracle& oracle,
                         std::vector<bits::BitVector>& current,
                         std::vector<bits::BitVector>& challenger, std::uint64_t phase,
                         const Params& params, const rng::Rng& rng);

/// Section 6: unknown alpha and D. Runs phases alpha = 1/2, 1/4, ...
/// until the per-player round budget is exhausted; after each phase,
/// each player keeps the better of (previous output, new output) via
/// RSelect. The returned phase log gives quality checkpoints for the
/// anytime claim (experiment E10).
RunReport anytime(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                  std::uint64_t round_budget, const Params& params, rng::Rng rng);

}  // namespace tmwia::core
