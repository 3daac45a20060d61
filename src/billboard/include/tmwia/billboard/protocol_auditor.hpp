// ProtocolAuditor: a runtime checker of the paper's billboard model
// (Section 1.1 / our DESIGN.md section 9).
//
// The theorems only hold if the implementation respects the model
// exactly; the auditor makes the contract executable. It attaches to a
// ProbeOracle (and, through it, to RoundScheduler runs) and asserts:
//
//  A1  one probe per player per round — in round-clocked executions a
//      player lands at most one *successful* probe per lockstep round
//      (failed attempts are the same probe resent, and are charged to
//      cost, not to the per-round budget);
//  A2  every post corresponds to a real probe — a result published on
//      the billboard at the end of round r must match a successful
//      probe by that player in round r (no fabricated posts);
//  A3  no read-before-post — a result first probed in round r is
//      private to the prober until the round ends; any billboard read
//      of it during round r is an information leak;
//  A4  cost accounting — the auditor keeps its own per-player
//      ledger of invocations (attempts) and successful probes, and
//      cross-checks the attempts against the oracle's counters and
//      against RunReport totals. Both counts of a player share one
//      cache line that only that player's probes write; no counter
//      shared by all players sits on the probe path, so an attached
//      auditor costs the probe path about what a detached one does.
//
// Violations are recorded (never thrown) in a structured AuditReport;
// tests assert report.clean(). The hooks in ProbeOracle/RoundScheduler
// are always compiled in; with no auditor attached their cost is one
// pointer test per probe.
//
// Thread safety: the A4 ledger has several writers per player — the
// forks of concurrent Large Radius groups share the auditor, and one
// player sits in several groups — so each count is a relaxed
// fetch_add; the read/post/round counters are relaxed atomics written
// only at serial hook points, and the violation list takes a mutex
// (violations are rare by construction). Round-mode state is only
// touched by the single-threaded RoundScheduler.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/matrix/ids.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::billboard {

struct AuditViolation {
  enum class Kind : std::uint8_t {
    kDoubleProbe,     ///< A1: >1 successful probe by one player in one round
    kPhantomPost,     ///< A2: published result with no matching probe that round
    kReadBeforePost,  ///< A3: billboard read of a result not yet published
    kCostMismatch,    ///< A4: auditor ledger disagrees with oracle/RunReport
  };

  Kind kind = Kind::kDoubleProbe;
  matrix::PlayerId player = 0;
  matrix::ObjectId object = 0;
  std::uint64_t round = 0;  ///< lockstep round (0 outside round mode)
  std::string detail;
};

[[nodiscard]] const char* to_string(AuditViolation::Kind kind);

/// The structured outcome of an audited execution.
struct AuditReport {
  std::vector<AuditViolation> violations;
  std::uint64_t rounds_audited = 0;
  std::uint64_t probes_audited = 0;  ///< successful probes seen, summed over players
  std::uint64_t reads_audited = 0;   ///< billboard result reads seen
  std::uint64_t posts_audited = 0;   ///< result publications seen

  [[nodiscard]] bool clean() const { return violations.empty(); }
};

class ProtocolAuditor {
 public:
  ProtocolAuditor(std::size_t players, std::size_t objects);

  // ---- hook surface (called by ProbeOracle / RoundScheduler) ----

  /// A lockstep round starts (RoundScheduler). Enables A1-A3.
  void begin_round(std::uint64_t round);
  /// The round's results are published; A2 is checked for posts seen.
  void end_round();

  /// A probe invocation was charged to player p (success or transient
  /// failure) — the A4 ledger, matching ProbeOracle::invocations.
  void on_probe_attempt(matrix::PlayerId p);
  /// Player p successfully probed object o.
  void on_probe(matrix::PlayerId p, matrix::ObjectId o);
  /// Player p probed objs[0..n) in order, each at its first attempt:
  /// one hook for the whole block, which leaves every ledger, check
  /// and violation as n pairs of on_probe_attempt(p) + on_probe(p, o)
  /// would (ProbeOracle::probe_block's audit hook).
  void on_probe_block(matrix::PlayerId p, std::span<const matrix::ObjectId> objs);
  /// The scheduler published p's result for o at the end of this round.
  void on_post(matrix::PlayerId p, matrix::ObjectId o);
  /// Someone read the posted result of (p, o) off the billboard.
  void on_read(matrix::PlayerId p, matrix::ObjectId o);

  // ---- verification (call after the run) ----

  /// A4 vs the oracle: `expected[p]` is the oracle's invocations(p)
  /// ledger (ProbeOracle::snapshot()). The auditor must have been
  /// attached before the first probe.
  void verify_invocations(const std::vector<std::uint64_t>& expected);

  /// A4 vs a RunReport: `total_probes` must equal the audited attempt
  /// total and `rounds` the max per-player attempts (the lockstep-round
  /// equivalence the oracle's accounting promises).
  void verify_totals(std::uint64_t total_probes, std::uint64_t rounds);

  /// Snapshot the report accumulated so far.
  [[nodiscard]] AuditReport report() const;

 private:
  void record(AuditViolation v);
  /// A1 and the round shadow for one successful probe (round mode).
  void check_round_probe(matrix::PlayerId p, matrix::ObjectId o);

  /// One player's A4 counts, alone on a cache line: a probe touches
  /// one line, and only the tasks probing for that player write it.
  struct alignas(64) PlayerLedger {
    std::atomic<std::uint64_t> attempts{0};   ///< invocations, failed ones included
    std::atomic<std::uint64_t> successes{0};  ///< successful probes
  };

  std::size_t players_;
  std::size_t objects_;

  // A4 ledgers: deliberately NOT guarded by mu_ — ledgers_[p] takes
  // relaxed fetch_adds from every fork probing for player p, the
  // aggregates are relaxed atomics; all are read at serial points.
  std::vector<PlayerLedger> ledgers_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> posts_{0};
  std::atomic<std::uint64_t> rounds_{0};

  // Round mode: unguarded by contract — only the single-threaded
  // RoundScheduler touches this block (begin_round/end_round/on_post
  // are serial hook points).
  bool round_active_ = false;
  std::uint64_t round_ = 0;
  std::vector<std::uint32_t> round_probe_count_;   ///< per player, this round
  std::vector<bits::BitVector> probed_this_round_; ///< (p, o) probed this round
  std::vector<std::pair<matrix::PlayerId, matrix::ObjectId>> round_probes_;
  std::vector<std::pair<matrix::PlayerId, matrix::ObjectId>> round_posts_;
  std::vector<bits::BitVector> posted_;  ///< public up to end of previous round

  mutable support::Mutex mu_;  ///< violations are rare; the list takes a real lock
  std::vector<AuditViolation> violations_ TMWIA_GUARDED_BY(mu_);
};

}  // namespace tmwia::billboard
