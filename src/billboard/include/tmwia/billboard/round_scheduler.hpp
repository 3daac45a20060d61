// RoundScheduler: a faithful executor of the paper's synchronous model
// (Section 1.1): "the algorithm proceeds in parallel rounds: in each
// round, each player reads the shared billboard, probes one object, and
// writes the result on the billboard."
//
// The library's algorithm implementations simulate this model centrally
// (probe accounting is equivalent — see ProbeOracle), but the scheduler
// is the reference semantics: strategies are per-player state machines
// restricted to one probe per round, reading only results posted in
// *earlier* rounds. It is used by tests to validate the accounting
// equivalence and by downstream users who want to drop in their own
// interactive strategies.
//
// Thread safety: the scheduler is single-threaded by contract — one
// thread drives run(), and every mutation of its round
// state happens on that thread. The concurrent structures it touches
// (Billboard, ProbeOracle ledgers, ProtocolAuditor) carry their own
// capability annotations; the scheduler's members are deliberately
// unguarded because sharing a RoundScheduler across threads is a usage
// error, not a supported mode.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"

namespace tmwia::billboard {

class RoundScheduler;

/// Read-only window onto the public state a player may consult during a
/// round: everything posted up to the END OF THE PREVIOUS round.
class RoundView {
 public:
  [[nodiscard]] std::size_t round() const { return round_; }
  [[nodiscard]] std::size_t players() const { return oracle_->players(); }

  /// Was (p, o) probed in an earlier round?
  [[nodiscard]] bool is_posted(PlayerId p, ObjectId o) const {
    return posted_[p].get(o);
  }
  /// The posted value (requires is_posted).
  [[nodiscard]] bool posted_value(PlayerId p, ObjectId o) const {
    if (!posted_[p].get(o)) {
      throw std::logic_error("RoundView: entry not posted yet");
    }
    return oracle_->probed_value(p, o);
  }

  /// Vector posts published in earlier rounds (votes, published
  /// outputs). Posts made *this* round become visible next round.
  [[nodiscard]] const Billboard& board() const { return *board_; }

 private:
  friend class RoundScheduler;
  RoundView(const ProbeOracle& oracle, const Billboard& board,
            const std::vector<bits::BitVector>& posted, std::size_t round)
      : oracle_(&oracle), board_(&board), posted_(posted), round_(round) {}

  const ProbeOracle* oracle_;
  const Billboard* board_;
  const std::vector<bits::BitVector>& posted_;
  std::size_t round_;
};

/// A vector post queued during a round; applied (made public) when the
/// round ends.
struct PendingPost {
  std::string channel;
  bits::BitVector vec;
};

/// A per-player interactive strategy. One instance per player; the
/// scheduler drives it one probe per round until done() or the round
/// cap.
class PlayerStrategy {
 public:
  virtual ~PlayerStrategy() = default;

  /// Choose this round's probe (nullopt: idle this round). The view
  /// exposes only earlier rounds' results.
  virtual std::optional<ObjectId> next_probe(const RoundView& view) = 0;

  /// Receive this round's probe result (only called if next_probe
  /// returned an object).
  virtual void on_result(ObjectId o, bool value) = 0;

  /// Vector posts to publish at the END of this round (default: none).
  /// Called after next_probe/on_result each round.
  virtual std::vector<PendingPost> posts() { return {}; }

  /// True once the player has nothing left to do.
  [[nodiscard]] virtual bool done() const = 0;
};

struct ScheduleResult {
  std::size_t rounds = 0;         ///< rounds executed
  std::size_t idle_probes = 0;    ///< rounds players chose to idle
  bool all_done = false;          ///< every strategy reported done()

  // Fault accounting (all zero without an attached FaultInjector).
  std::size_t crash_skips = 0;     ///< player-rounds lost to crash-stop
  std::size_t probe_failures = 0;  ///< transient probe failures seen (incl. retries)
  std::size_t posts_dropped = 0;   ///< vector posts lost before publication
  std::size_t posts_delayed = 0;   ///< vector posts deferred to a later round
  /// Strategies that threw from next_probe/on_result/posts. A throwing
  /// strategy is isolated: it is marked failed and skipped from then
  /// on; every other player is unaffected.
  std::vector<PlayerId> failed_strategies;
};

/// Drive one strategy per player in lockstep. Strategies may be null
/// (that player never probes). Stops when every non-null strategy is
/// done or after max_rounds.
///
/// Fault semantics (when the oracle has a FaultInjector attached): the
/// scheduler engages the injector's round clock, so crash windows are
/// global lockstep rounds and recovery works. A down player's rounds
/// are skipped (counted in crash_skips); a down player with a scheduled
/// recovery keeps the run alive, one without does not. Transient probe
/// failures are retried within the round up to the plan's retry budget
/// (every attempt charged to invocations); on exhaustion the strategy
/// simply gets no result that round. Pending vector posts may be
/// dropped or delayed; delayed posts become visible at the start of the
/// round they come due (any still queued when the run ends are flushed
/// to the board on exit).
class RoundScheduler {
 public:
  explicit RoundScheduler(ProbeOracle& oracle);

  ScheduleResult run(std::vector<std::unique_ptr<PlayerStrategy>>& strategies,
                     std::size_t max_rounds);

 private:
  ProbeOracle* oracle_;
  Billboard board_;
  // What has been posted up to the end of the previous round; updated
  // once per round so in-round probes are invisible to peers.
  std::vector<bits::BitVector> posted_;
  // Round number the next run() call starts at. Each run() advances it
  // past the last round it touched, so repeated calls on one scheduler
  // (e.g. an engine::Supervisor driving phases) share a monotone round
  // clock — injector crash windows, the auditor, and the flight
  // recorder all see globally increasing round numbers.
  std::size_t start_round_ = 0;
};

}  // namespace tmwia::billboard
