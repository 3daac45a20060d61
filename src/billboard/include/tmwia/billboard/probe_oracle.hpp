// ProbeOracle: the single gateway between player code and the hidden
// preference matrix.
//
// Model recap (Section 1.1): in each round every player probes one
// object of its own row at unit cost, and the result is posted on the
// shared billboard. We simulate asynchronously but account faithfully:
//  * `invocations(p)` counts every Probe call by player p — this is the
//    quantity the theorems bound (e.g. Thm 3.2's k(D+1));
//  * `charged(p)` counts *distinct* (p, o) probes — re-reading one's own
//    posted result is a billboard read, not a new probe;
//  * rounds of a phase = max over participating players of the probes
//    spent in that phase, matching the one-probe-per-round lockstep.
//
// Thread safety: concurrent probes by *different* players are safe
// (per-player ledgers, per-player memo rows). Player code runs
// single-threaded per player. Tasks that probe for the same player at
// once — Large Radius groups share players — each probe through their
// own fork(), a task-local ledger over the same truth; the caller
// builds the forks, and joins them back in task order once the tasks
// are done, which leaves every ledger exactly as the serial run would.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/preference_matrix.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::billboard {

class ProtocolAuditor;

using matrix::ObjectId;
using matrix::PlayerId;

/// Probe-noise model: the paper's intro motivates diversity partly by
/// "time-variable factors (such as noise, weather, mood)". The oracle
/// can inject sticky Bernoulli(epsilon) read errors: whether a read of
/// (p, o) is flipped is a deterministic function of (seed, p, o) — a
/// miscalibrated sensor / a user who consistently misjudges an item.
/// Re-probing returns the same wrong answer. Epsilon 0 (the default)
/// is no noise.
struct NoiseModel {
  double epsilon = 0.0;
  std::uint64_t seed = 0;

  static NoiseModel sticky(double epsilon, std::uint64_t seed) { return {epsilon, seed}; }
};

class ProbeOracle {
 public:
  explicit ProbeOracle(const matrix::PreferenceMatrix& truth, NoiseModel noise = {});

  [[nodiscard]] std::size_t players() const { return truth_->players(); }
  [[nodiscard]] std::size_t objects() const { return truth_->objects(); }

  /// Attach a fault injector: subsequent probes may throw
  /// faults::PlayerCrashedError (attempt not charged — a dead player
  /// sends nothing) or faults::ProbeFailedError (attempt charged to
  /// invocations; the probe was sent, the result lost). The injector
  /// must outlive the oracle's use. nullptr detaches.
  void set_fault_injector(faults::FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] faults::FaultInjector* fault_injector() const { return injector_; }

  /// Attach the flight recorder that logs this run. Probes, failed
  /// probes, crashes and degradations are recorded to it, and the
  /// RoundScheduler and the tower entry points read it from here (the
  /// scheduler hands it to its billboard). Attach before the first
  /// probe so the log covers the whole run. The recorder must outlive
  /// the oracle's use; nullptr (the default) records nothing.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::FlightRecorder* recorder() const { return recorder_; }

  /// Attach a ProtocolAuditor: probes, result reads and (through the
  /// RoundScheduler) posts are reported to it so the paper's billboard
  /// model can be checked at runtime. Attach before the first probe so
  /// the cost ledgers line up. The auditor must outlive the oracle's
  /// use; nullptr detaches.
  void set_auditor(ProtocolAuditor* auditor) { auditor_ = auditor; }
  [[nodiscard]] ProtocolAuditor* auditor() const { return auditor_; }

  /// Player p probes object o: returns v(p)[o], charges cost, records
  /// the result on the probe record (billboard side). With a fault
  /// injector attached this is the *raw* probe: injected faults
  /// propagate as exceptions (see set_fault_injector).
  ///
  /// The no-injector/no-auditor path is inlined here: at tens of
  /// millions of calls per run this is the hottest function in the
  /// system, and out-of-line it costs more in call overhead than in
  /// work.
  bool probe(PlayerId p, ObjectId o) {
    if (injector_ != nullptr || auditor_ != nullptr) return probe_slow(p, o);
    // A fork's non-members have zero-width rows, so this one test also
    // rejects them.
    if (p >= players() || o >= probed_[p].size()) reject_probe(p, o, "probe");
    const auto inv = bump(invocations_[p]);
    if (!probed_[p].get(o)) {
      bump(charged_[p]);
      probed_[p].set(o, true);
    }
    const bool value = noisy_read(p, o);
    values_[p].set(o, value);
    if (recorder_ != nullptr) recorder_->probe(p, o, value, inv);
    return value;
  }

  /// Batched probe: player p probes objs[0..n) in order, results packed
  /// into the low n bits of `out` (bit j = probe of objs[j]).
  /// Observably identical to `for j: probe_resilient(p, objs[j])` —
  /// same ledger totals, same reads, same recorder events, and with an
  /// auditor attached the same auditor ledgers, violations and report
  /// — but the bookkeeping (counter
  /// bumps, recorder lookup, bounds checks, the audit hook) is
  /// amortized over the whole block: the auditor hears of it once,
  /// through ProtocolAuditor::on_probe_block. This is the Zero Radius
  /// leaf's probe path, where every player reads its full object
  /// subset (Small Radius's all-leaf iterations read theirs through
  /// probe_set), and Small Radius's Select replay. Only a fault
  /// injector takes the bits one probe at a time, because it draws a
  /// fault per attempt.
  void probe_block(PlayerId p, std::span<const ObjectId> objs, bits::BitVector& out) {
    if (injector_ != nullptr) {
      for (std::size_t j = 0; j < objs.size(); ++j) out.set(j, probe_resilient(p, objs[j]));
      return;
    }
    if (p >= players()) {
      throw std::out_of_range("ProbeOracle::probe_block: player out of range");
    }
    const auto width = probed_[p].size();
    for (const auto o : objs) {
      if (o >= width) reject_probe(p, o, "probe_block");
    }
    const auto n = objs.size();
    const auto inv0 = invocations_[p].load(std::memory_order_relaxed);
    invocations_[p].store(inv0 + n, std::memory_order_relaxed);
    auto& probed = probed_[p];
    auto& values = values_[p];
    auto* rec = recorder_;
    const bool noisy = noise_.epsilon > 0.0;
    const auto& truth_row = truth_->row(p);
    std::uint64_t newly_charged = 0;
    std::uint64_t word = 0;
    // tmwia-lint: allow(per-bit-loop) the probe protocol is per (p,o): ledger, noise, and recorder events are defined one probe at a time
    for (std::size_t j = 0; j < n; ++j) {
      const auto o = objs[j];
      if (!probed.get(o)) {
        ++newly_charged;
        probed.set(o, true);
      }
      bool value = truth_row.get(o);
      if (noisy) [[unlikely]] value ^= noise_flip(p, o);
      values.set(o, value);
      if (rec != nullptr) [[unlikely]] rec->probe(p, o, value, inv0 + j);
      word |= static_cast<std::uint64_t>(value) << (j & 63);
      if ((j & 63) == 63) {
        out.set_word(j >> 6, word);
        word = 0;
      }
    }
    if ((n & 63) != 0) out.set_word(n >> 6, word);
    if (newly_charged != 0) {
      const auto c = charged_[p].load(std::memory_order_relaxed);
      charged_[p].store(c + newly_charged, std::memory_order_relaxed);
    }
    if (auditor_ != nullptr) audit_block(p, objs);
  }

  /// A set of objects that players probe as one block (probe_set): the
  /// objects in report order, and their word mask over the oracle's
  /// objects(). The caller builds it once, which checks the bounds
  /// once (std::out_of_range), and every player's probe_set reads it;
  /// it serves the oracle it was built for and that oracle's forks.
  class ObjectSet {
   public:
    ObjectSet(const ProbeOracle& oracle, std::vector<ObjectId> objects);
    [[nodiscard]] std::span<const ObjectId> objects() const { return objects_; }

   private:
    friend class ProbeOracle;
    std::vector<ObjectId> objects_;
    bits::BitVector mask_;
  };

  /// probe_block(p, set.objects(), out) with the ledger kept in words:
  /// the same invocations, charges, probe record, values, auditor
  /// report and exceptions (a fork's non-member gets std::logic_error),
  /// and bit j of `out` is the result for set.objects()[j]. Where
  /// probe_block walks the block one object at a time, this charges,
  /// marks and reads 64 objects per word of the set's mask; only
  /// sticky noise (a hash per probed bit) and filling `out` in report
  /// order go one bit at a time. A fault injector or a flight recorder
  /// sees every probe, so with either attached this is probe_block.
  /// Small Radius's all-leaf iterations probe each player's leaves
  /// this way, one call per player and iteration (DESIGN §13.6).
  void probe_set(PlayerId p, const ObjectSet& set, bits::BitVector& out);

  /// Fault-tolerant probe used by the centrally-simulated phases:
  /// retries transient failures up to the plan's retry budget (each
  /// attempt charged), and degrades instead of throwing — a crashed or
  /// retry-exhausted player is marked failed on the injector and served
  /// its posted value for (p, o) (0 if never probed) from then on.
  /// Without an injector this is exactly probe().
  bool probe_resilient(PlayerId p, ObjectId o) {
    if (injector_ == nullptr) return probe(p, o);
    return probe_resilient_slow(p, o);
  }

  /// Result of a past probe (the value posted on the billboard, which
  /// under noise may differ from the truth). Requires
  /// probed_mask(p).get(o). Billboard read: any player may call this
  /// for any p (results are public).
  [[nodiscard]] bool probed_value(PlayerId p, ObjectId o) const;

  /// Packed per-player probe record: which objects p has probed, and
  /// the posted values. Billboard reads (free), used by degraded
  /// players that can no longer probe.
  [[nodiscard]] const bits::BitVector& probed_mask(PlayerId p) const { return probed_[p]; }
  [[nodiscard]] const bits::BitVector& posted_values(PlayerId p) const { return values_[p]; }

  /// Total Probe invocations by player p (the theorem-bound quantity).
  [[nodiscard]] std::uint64_t invocations(PlayerId p) const {
    return invocations_[p].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_invocations() const;
  [[nodiscard]] std::uint64_t total_charged() const;

  /// Max invocations over all players: the number of lockstep rounds a
  /// synchronous execution of the whole history would need.
  [[nodiscard]] std::uint64_t max_invocations() const;

  /// Snapshot of per-player invocation counters, for phase accounting:
  ///   auto before = oracle.snapshot();
  ///   ... phase ...
  ///   rounds = oracle.rounds_since(before);
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const;
  [[nodiscard]] std::uint64_t rounds_since(const std::vector<std::uint64_t>& before) const;

  /// The full per-player cost-and-record state, for checkpointing.
  /// Restoring into a fresh oracle over the same truth matrix resumes
  /// accounting (and billboard-side probe records) exactly where the
  /// export froze it.
  struct Ledger {
    std::vector<std::uint64_t> invocations;
    std::vector<std::uint64_t> charged;
    std::vector<bits::BitVector> probed;
    std::vector<bits::BitVector> values;
  };
  [[nodiscard]] Ledger export_ledger() const;
  /// Throws std::invalid_argument when the ledger shape does not match
  /// this oracle's (players, objects). Call only at quiescent points.
  void restore_ledger(const Ledger& ledger);

  /// Is the order of a player's probes unobservable? Not with a fault
  /// injector (its state moves with every attempt) or a flight
  /// recorder (it logs each player's invocation index); noise and an
  /// auditor are fine. Then the ledgers, reads and values after a set
  /// of probes do not depend on their order, so callers may reorder a
  /// player's probes (Small Radius batches its leaves) or split them
  /// across forks.
  [[nodiscard]] bool order_free() const { return injector_ == nullptr && recorder_ == nullptr; }

  /// Can a fork of this oracle be joined back without changing what
  /// the serial run observes? When the order is free (order_free())
  /// and this oracle is not itself a fork.
  [[nodiscard]] bool forkable() const { return order_free() && !is_fork_; }

  /// A task-local ledger for one task's probes: a ProbeOracle over the
  /// same truth, noise model and auditor, with zero ledgers and rows
  /// only for `members` — a probe by anyone else throws
  /// std::logic_error. Requires forkable(). Build forks on the caller,
  /// probe each from one task, then join() them.
  [[nodiscard]] ProbeOracle fork(std::span<const PlayerId> members) const;

  /// Fold a finished fork of this oracle back in: for each member, add
  /// its invocations, charge the objects it probed first, and take its
  /// probed bits and values. Joining forks in task order equals running
  /// the tasks serially here — forks that share a player probe disjoint
  /// objects in Large Radius, and a read depends on (p, o) alone. Call
  /// on the caller, never concurrently with probes.
  void join(const ProbeOracle& fork);

 private:
  ProbeOracle(const ProbeOracle& parent, std::span<const PlayerId> members);

  /// The out-of-line throw behind the probe paths' one bounds test: a
  /// fork's non-member gets std::logic_error, anything else out of
  /// range std::out_of_range.
  [[noreturn]] void reject_probe(PlayerId p, ObjectId o, const char* where) const;

  /// Add `by` to a per-player ledger counter, returning the old value.
  /// Player p's counters have a single writer (player code runs
  /// single-threaded per player), so a relaxed load+store pair suffices
  /// — an atomic RMW would put a LOCK-prefixed op in the hottest loop
  /// in the system for exclusivity nobody contends.
  static std::uint64_t bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
    const auto v = c.load(std::memory_order_relaxed);
    c.store(v + by, std::memory_order_relaxed);
    return v;
  }

  /// The noiseless read folds to one bit load.
  [[nodiscard]] bool noisy_read(PlayerId p, ObjectId o) const {
    const bool truth = truth_->value(p, o);
    if (noise_.epsilon <= 0.0) [[likely]] return truth;
    return truth ^ noise_flip(p, o);
  }
  /// Whether sticky noise flips this read. Inline: in a noisy run every
  /// probe pays this hash, so the call must fold into the probe fast
  /// path.
  [[nodiscard]] bool noise_flip(PlayerId p, ObjectId o) const {
    return rng::hash_bernoulli(rng::mix(noise_.seed, p, o), noise_.epsilon);
  }
  /// Full probe path with fault-injection and audit hooks.
  bool probe_slow(PlayerId p, ObjectId o);
  /// probe_block's one audit hook (ProtocolAuditor is incomplete here).
  void audit_block(PlayerId p, std::span<const ObjectId> objs);
  bool probe_resilient_slow(PlayerId p, ObjectId o);
  [[nodiscard]] bool fallback_read(PlayerId p, ObjectId o) const;

  const matrix::PreferenceMatrix* truth_;
  NoiseModel noise_;
  faults::FaultInjector* injector_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  ProtocolAuditor* auditor_ = nullptr;
  std::vector<std::atomic<std::uint64_t>> invocations_;
  std::vector<std::atomic<std::uint64_t>> charged_;
  // Per-player record of which objects were probed and the posted
  // values (packed bitmaps). A fork's non-members have empty rows.
  std::vector<bits::BitVector> probed_;
  std::vector<bits::BitVector> values_;
  // A fork's members (ascending, distinct); empty for an oracle that is
  // not a fork.
  std::vector<PlayerId> members_;
  bool is_fork_ = false;
};

}  // namespace tmwia::billboard
