// FaultInjector: the runtime half of the fault model. One injector is
// attached to a ProbeOracle and shared by every execution layer; all of
// its decisions are stateless hashes of (plan seed, player, event
// index), so a fixed plan replays byte-identically regardless of thread
// scheduling.
//
// Two clocks drive crash windows:
//  * attempt clock (default) — per-player count of Probe attempts; used
//    by the centrally-simulated phases, where "round r" for player p
//    means p's r-th probe. Crash-stop is permanent in this mode.
//  * round clock — engaged by RoundScheduler via begin_round(); crash
//    windows [at, recover) are then global lockstep rounds and recovery
//    works.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "tmwia/faults/fault_plan.hpp"

namespace tmwia::faults {

/// Thrown by ProbeOracle::probe when the prober is crash-stopped. The
/// attempt is not charged (a dead player sends nothing).
class PlayerCrashedError : public std::runtime_error {
 public:
  explicit PlayerCrashedError(PlayerId p)
      : std::runtime_error("player " + std::to_string(p) + " is crash-stopped"), player(p) {}
  PlayerId player;
};

/// Thrown by ProbeOracle::probe on a transient injected failure. The
/// attempt *is* charged to invocations (the probe was sent, the result
/// lost), so retry costs show up in the round accounting.
class ProbeFailedError : public std::runtime_error {
 public:
  ProbeFailedError(PlayerId p, ObjectId o)
      : std::runtime_error("probe (" + std::to_string(p) + ", " + std::to_string(o) +
                           ") failed transiently"),
        player(p),
        object(o) {}
  PlayerId player;
  ObjectId object;
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::size_t n_players);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Outcome of one Probe attempt by `p` (advances p's attempt clock).
  enum class Attempt : std::uint8_t { kOk, kFail, kCrashed };
  Attempt on_probe_attempt(PlayerId p);

  /// Crash-stopped right now?
  [[nodiscard]] bool is_down(PlayerId p) const {
    return down_[p].load(std::memory_order_relaxed) != 0;
  }
  /// Gave up probing (crash or retry exhaustion)? Failed players are
  /// excluded from votes and skipped by the degradation-aware phases.
  [[nodiscard]] bool is_failed(PlayerId p) const {
    return is_down(p) || degraded_[p].load(std::memory_order_relaxed) != 0;
  }

  /// A retry wrapper spent one retry on behalf of `p`.
  void note_retry(PlayerId p);
  /// `p` exhausted its retry budget and degrades to billboard re-reads.
  void mark_degraded(PlayerId p);
  /// A degraded read was served from posted values instead of a probe.
  void note_fallback_read(PlayerId p);
  /// `p` lost its committee/candidate quorum and fell back to adopting
  /// from surviving posts.
  void note_orphan(PlayerId p);
  [[nodiscard]] bool is_orphaned(PlayerId p) const {
    return orphaned_[p].load(std::memory_order_relaxed) != 0;
  }

  /// Does `p`'s crash window schedule a recovery? (Schedulers use this
  /// to decide whether a down player still keeps the run alive.)
  [[nodiscard]] bool may_recover(PlayerId p) const { return windows_[p].recover != kNever; }

  /// Engage the round clock: recompute crash states for `round`,
  /// firing crash/recovery transitions. Called by RoundScheduler at the
  /// top of every round.
  void begin_round(std::uint64_t round);

  /// Should this publication by `p` be lost? Pure in (seed, p, tag):
  /// voting paths consult it with the same tag as the publishing path
  /// so both sides agree. Does not count the event — the publishing
  /// path counts via note_post_dropped.
  [[nodiscard]] bool post_lost(PlayerId p, std::uint64_t channel_tag) const;
  void note_post_dropped();

  /// Rounds to delay the seq-th surviving post by `p` (0: publish now).
  /// Counts delayed posts. Sequence-numbered per player, so scheduler
  /// executions get fresh draws per post.
  std::uint64_t delay_for_post(PlayerId p);

  /// Snapshot the report (player sets sorted ascending).
  [[nodiscard]] FaultReport report() const;

  /// FNV-1a hash of a channel name, for post_lost tags.
  static std::uint64_t channel_tag(std::string_view channel);

  /// Kill switch for durability drills: when the plan carries
  /// kill=R and `cum_round >= R`, raise SIGKILL — the process dies
  /// exactly as a crashed shard would, with no destructors and no
  /// flushing. Checkpoint cadence code calls this *after* a checkpoint
  /// write so the drill always has a file to resume from.
  void maybe_kill(std::uint64_t cum_round);

  /// Every mutable cursor of the injector, for checkpointing. The
  /// resolved crash windows are not part of the state — they are a pure
  /// function of the plan, recomputed on construction.
  struct State {
    std::vector<std::uint64_t> attempts;
    std::vector<std::uint64_t> post_seq;
    std::vector<std::uint8_t> down, degraded, orphaned, was_crashed, was_recovered;
    std::uint64_t probe_failures = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallback_reads = 0;
    std::uint64_t posts_dropped = 0;
    std::uint64_t posts_delayed = 0;
  };
  [[nodiscard]] State export_state() const;
  /// Throws std::invalid_argument on player-count mismatch.
  void restore_state(const State& st);

 private:
  FaultPlan plan_;
  std::size_t n_;
  std::vector<CrashWindow> windows_;  ///< resolved per-player crash windows

  std::atomic<bool> round_clock_{false};

  std::vector<std::atomic<std::uint64_t>> attempts_;
  std::vector<std::atomic<std::uint64_t>> post_seq_;
  std::vector<std::atomic<std::uint8_t>> down_;
  std::vector<std::atomic<std::uint8_t>> degraded_;
  std::vector<std::atomic<std::uint8_t>> orphaned_;
  std::vector<std::atomic<std::uint8_t>> was_crashed_;
  std::vector<std::atomic<std::uint8_t>> was_recovered_;

  std::atomic<std::uint64_t> probe_failures_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> fallback_reads_{0};
  std::atomic<std::uint64_t> posts_dropped_{0};
  std::atomic<std::uint64_t> posts_delayed_{0};
};

}  // namespace tmwia::faults
