// Fault model for the billboard execution stack.
//
// The paper's model (Section 1.1) assumes every player probes once per
// lockstep round and every result lands on the billboard. Its own
// motivation — dishonest eBay users, flaky sensors — says otherwise, and
// a production deployment certainly does. The faults subsystem makes the
// unreliable world a first-class, *deterministic* input: a FaultPlan is
// a seeded declarative spec of what goes wrong, a FaultInjector executes
// it at runtime, and a FaultReport makes every fired fault observable.
//
// Three fault classes (all decided by stateless hashes of the plan seed,
// so the same plan replays byte-identically):
//  * crash-stop  — a player stops probing at a given round, optionally
//    recovering later. Under the RoundScheduler the round is the global
//    lockstep round (recovery supported); under the centrally-simulated
//    phases it is the player's own probe-attempt count and the crash is
//    permanent for the run (there is no global clock to recover on).
//  * probe failure — an individual Probe call fails transiently. The
//    attempt still burns an invocation (the probe was sent; the result
//    was lost), so retries are charged faithfully to the theorem-bound
//    cost. Callers retry with a bounded budget; on exhaustion the player
//    degrades to billboard re-reads.
//  * post loss  — a published vector is dropped or delayed before it
//    becomes visible to other players.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/matrix/ids.hpp"

namespace tmwia::faults {

using matrix::ObjectId;
using matrix::PlayerId;

/// Sentinel round meaning "never".
inline constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// A crash-stop window for one player: down for rounds in [at, recover).
struct CrashWindow {
  std::uint64_t at = kNever;
  std::uint64_t recover = kNever;
};

/// Declarative, seeded fault specification. `parse` understands the CLI
/// grammar (comma-separated clauses, all optional):
///
///   seed=S          hash seed for every fault draw        (default 0)
///   crash=R@A       crash-stop each player w.p. R at round A
///   crash=R@A-B     ... at a per-player round hashed uniformly in [A,B]
///   recover=K       crashed players come back K rounds after crashing
///                   (RoundScheduler executions only)
///   probe=R         each Probe call fails transiently w.p. R
///   retry=N         retry budget per logical probe        (default 3)
///   drop=R          each billboard post is lost w.p. R
///   delay=R@K       each surviving post is delayed K rounds w.p. R
///   kill=R          SIGKILL the whole process at cumulative round R
///                   (checkpoint/resume drills; fires at most once)
///
/// Example: --faults=seed=7,crash=0.2@16-64,probe=0.05,retry=3,drop=0.1
struct FaultPlan {
  std::uint64_t seed = 0;

  // Crash-stop.
  double crash_rate = 0.0;
  std::uint64_t crash_round_lo = 0;
  std::uint64_t crash_round_hi = 0;
  /// Rounds after the crash at which the player recovers (kNever: stay
  /// down). Only honored by round-clocked (scheduler) executions.
  std::uint64_t recover_after = kNever;
  /// Explicit per-player windows, applied on top of the rate draw.
  std::vector<std::pair<PlayerId, CrashWindow>> explicit_crashes;

  // Transient probe failure.
  double probe_fail_rate = 0.0;
  std::size_t retry_budget = 3;

  // Billboard post loss.
  double post_drop_rate = 0.0;
  double post_delay_rate = 0.0;
  std::uint64_t post_delay_rounds = 0;

  /// Process kill switch: SIGKILL at the first checkpoint boundary whose
  /// cumulative round count reaches this value (kNever: off). Drives the
  /// kill/resume durability drills; deterministic, fires at most once.
  std::uint64_t kill_at_round = kNever;

  /// Parse the CLI grammar above. Throws std::invalid_argument on
  /// malformed clauses or out-of-range rates.
  static FaultPlan parse(std::string_view spec);

  /// The crash window plan `seed` deals to player `p` (kNever window if
  /// the player is spared). Deterministic in (seed, p).
  [[nodiscard]] CrashWindow crash_window(PlayerId p) const;
};

/// Everything the injector observed, in deterministic order: counters
/// plus sorted player sets. Two runs of the same plan+workload compare
/// equal (and serialize byte-identically via to_string()).
struct FaultReport {
  std::uint64_t probe_failures = 0;  ///< transient Probe failures fired
  std::uint64_t retries = 0;         ///< retry attempts spent by wrappers
  std::uint64_t fallback_reads = 0;  ///< degraded reads served from posted values
  std::uint64_t posts_dropped = 0;
  std::uint64_t posts_delayed = 0;
  std::vector<PlayerId> crashed;    ///< crash-stopped at least once
  std::vector<PlayerId> recovered;  ///< came back from a crash
  std::vector<PlayerId> degraded;   ///< abandoned probing (retry exhaustion)
  std::vector<PlayerId> orphaned;   ///< lost their quorum, adopted from survivors

  bool operator==(const FaultReport&) const = default;

  /// Stable single-line-per-field rendering (bytes identical across
  /// runs of the same plan and workload).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace tmwia::faults
