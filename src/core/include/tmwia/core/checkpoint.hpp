// Crash-consistent checkpoint/resume for the algorithm tower.
//
// A RunCheckpoint freezes everything a killed unknown-D run needs to
// continue byte-identically: the tower cursor (the candidate versions
// of the guesses finished so far and their timeline entries; the next
// guess is the next version), the root RNG state (splits are pure in
// (state, structural tags), so restoring the root replays the remaining
// splits exactly), the oracle cost ledgers and probe records, the
// billboard posts, the fault-injector cursors, the metrics snapshot,
// and the flight-recorder logical clock. Snapshots are cut only at
// guess boundaries — serial points with no staged writers in flight —
// and written through io::Checkpoint's atomic tmp+fsync+rename path, so
// a SIGKILL at any byte leaves either the previous snapshot or the new
// one, never a torn file.
//
// The splice contract (verified by tools/run_tests.sh --kill-resume):
// the recorder emits note("ckpt", seq, cum_rounds) *before* the sink
// writes the file, and the checkpoint stores the clock just after that
// note. A resumed run therefore continues the event timeline exactly
// where the note left it: <uninterrupted log> ==
// <killed-run log prefix through the matching note> + <resumed log>.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::core {

/// Full run state at one guess boundary of find_preferences_unknown_d.
struct RunCheckpoint {
  // Identity — validated on resume so a checkpoint can't be replayed
  // against the wrong world.
  std::string algo = "unknown_d";
  double alpha = 0.5;
  std::uint64_t players = 0;
  std::uint64_t objects = 0;

  // Cut position.
  std::uint64_t seq = 0;             ///< checkpoint sequence number (1-based)
  std::uint64_t cum_rounds = 0;      ///< rounds consumed at the cut
  std::uint64_t recorder_clock = 0;  ///< logical clock just after the ckpt note

  // Tower cursor. The guesses follow from `objects`, and the next one
  // to run is guesses[versions.size()].
  std::vector<std::vector<bits::BitVector>> versions;  ///< outputs per finished guess
  std::vector<PhaseCheckpoint> timeline;  ///< one entry per finished guess
  std::vector<std::uint64_t> before;      ///< oracle snapshot at run entry
  std::uint64_t probes_before = 0;
  std::array<std::uint64_t, 4> rng_state{};  ///< root stream (splits are pure)

  // World state.
  billboard::ProbeOracle::Ledger oracle;
  std::vector<billboard::Billboard::ChannelDump> board;
  bool has_injector = false;
  faults::FaultInjector::State injector;
  bool metrics_enabled = false;
  obs::Snapshot metrics;

  /// Free-form harness metadata (the CLI stores the fault spec, params
  /// profile, instance path... — whatever it needs to rebuild the world
  /// before calling resume). Sorted by key when serialized.
  std::vector<std::pair<std::string, std::string>> harness;

  /// Harness value lookup; empty string when absent.
  [[nodiscard]] std::string harness_value(const std::string& key) const;
};

/// Cadence + sink for cutting checkpoints during a run. With
/// every_rounds == 0 the run never checkpoints (and never emits ckpt
/// notes); a reference run that should *compare* against a checkpointed
/// one must use the same cadence (so the notes line up) — give it a
/// null sink if it shouldn't write files.
struct CheckpointPolicy {
  std::uint64_t every_rounds = 0;
  std::function<void(const RunCheckpoint&)> sink;
};

// ---------------------------------------------------------------------------
// Serialization (io::Checkpoint container)
// ---------------------------------------------------------------------------

/// Encode the full checkpoint through the sectioned container.
std::string encode_run_checkpoint(const RunCheckpoint& ckpt);

/// Atomic write / validated load of the container file. Loading throws
/// io::CheckpointError on corrupt input: a truncated or over-long
/// section, a count its section cannot hold, a version or oracle row
/// that is not `objects` bits wide, or a board player id at or past
/// `players`.
void save_run_checkpoint(const std::string& path, const RunCheckpoint& ckpt);
RunCheckpoint load_run_checkpoint(const std::string& path);

// ---------------------------------------------------------------------------
// Checkpoint-aware tower execution
// ---------------------------------------------------------------------------

/// find_preferences_unknown_d with a checkpoint cadence: cuts a
/// RunCheckpoint at every guess boundary where at least
/// `policy.every_rounds` rounds accrued since the last cut. Identical
/// results/logs to the plain overload apart from the ckpt note records.
RunReport find_preferences_unknown_d(billboard::ProbeOracle& oracle,
                                     billboard::Billboard* board, double alpha,
                                     const Params& params, rng::Rng rng,
                                     const CheckpointPolicy& policy);

/// Continue a checkpointed unknown-D run to completion. Restores the
/// world state into the caller's freshly-constructed oracle/board/
/// injector (shapes validated), the checkpoint's metrics stream into the
/// global registry when the caller enabled it, and the installed flight
/// recorder's clock, then runs the guesses after the stored versions.
/// The returned report is byte-identical (to_json) to the uninterrupted
/// run's. Throws std::invalid_argument on a shape/algo mismatch and
/// io::CheckpointError on a cursor that does not fit the shape (more
/// versions than guesses, a version or `before` without one entry per
/// player, or a timeline not one entry per version), before any state
/// is touched.
RunReport resume_unknown_d(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                           const Params& params, const RunCheckpoint& ckpt,
                           const CheckpointPolicy& policy);

}  // namespace tmwia::core
