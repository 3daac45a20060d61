#include "tmwia/billboard/probe_oracle.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/obs/metrics.hpp"

namespace tmwia::billboard {
namespace {

// Only the *rare* fault paths carry per-event counters; the probe()
// success path stays uninstrumented (its cost is a couple of relaxed
// atomics — a counter there would be a measurable fraction of it).
// Aggregate probe totals are exported as gauges at serial points by
// the callers that write a metrics artifact from the oracle's own
// per-player ledgers.
struct OracleMetrics {
  obs::MetricsRegistry::Counter crashes =
      obs::MetricsRegistry::global().counter("oracle.probe_crashes");
  obs::MetricsRegistry::Counter failures =
      obs::MetricsRegistry::global().counter("oracle.probe_failures");
  obs::MetricsRegistry::Counter retries =
      obs::MetricsRegistry::global().counter("oracle.retries");
  obs::MetricsRegistry::Counter degraded =
      obs::MetricsRegistry::global().counter("oracle.degraded");
  obs::MetricsRegistry::Counter fallback_reads =
      obs::MetricsRegistry::global().counter("oracle.fallback_reads");
};

const OracleMetrics& oracle_metrics() {
  static const OracleMetrics m;
  return m;
}

}  // namespace

ProbeOracle::ProbeOracle(const matrix::PreferenceMatrix& truth, NoiseModel noise)
    : truth_(&truth),
      noise_(noise),
      invocations_(truth.players()),
      charged_(truth.players()),
      probed_(truth.players(), bits::BitVector(truth.objects())),
      values_(truth.players(), bits::BitVector(truth.objects())) {}

ProbeOracle::ProbeOracle(const ProbeOracle& parent, std::span<const PlayerId> members)
    : truth_(parent.truth_),
      noise_(parent.noise_),
      auditor_(parent.auditor_),
      invocations_(parent.players()),
      charged_(parent.players()),
      probed_(parent.players()),
      values_(parent.players()),
      members_(members.begin(), members.end()),
      is_fork_(true) {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  if (!members_.empty() && members_.back() >= players()) {
    throw std::out_of_range("ProbeOracle::fork: member out of range");
  }
  for (const PlayerId p : members_) {
    probed_[p] = bits::BitVector(objects());
    values_[p] = bits::BitVector(objects());
  }
}

ProbeOracle ProbeOracle::fork(std::span<const PlayerId> members) const {
  if (!forkable()) {
    throw std::logic_error(
        "ProbeOracle::fork: reads or records on this oracle depend on probe order");
  }
  return ProbeOracle(*this, members);
}

void ProbeOracle::join(const ProbeOracle& fork) {
  if (!fork.is_fork_ || fork.truth_ != truth_) {
    throw std::invalid_argument("ProbeOracle::join: not a fork of this oracle");
  }
  for (const PlayerId p : fork.members_) {
    invocations_[p].store(invocations_[p].load(std::memory_order_relaxed) +
                              fork.invocations_[p].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    auto& probed = probed_[p];
    auto& values = values_[p];
    const auto theirs = fork.probed_[p].words();
    const auto their_values = fork.values_[p].words();
    std::uint64_t first_probes = 0;
    for (std::size_t w = 0; w < theirs.size(); ++w) {
      const auto mine = probed.words()[w];
      first_probes += static_cast<std::uint64_t>(std::popcount(theirs[w] & ~mine));
      probed.set_word(w, mine | theirs[w]);
      values.set_word(w, (values.words()[w] & ~theirs[w]) | (their_values[w] & theirs[w]));
    }
    charged_[p].store(charged_[p].load(std::memory_order_relaxed) + first_probes,
                      std::memory_order_relaxed);
  }
}

void ProbeOracle::reject_probe(PlayerId p, ObjectId o, const char* where) const {
  if (p < players() && o < objects()) {
    throw std::logic_error(std::string("ProbeOracle::") + where + ": player " +
                           std::to_string(p) + " is not a member of this fork");
  }
  throw std::out_of_range(std::string("ProbeOracle::") + where +
                          ": player/object out of range");
}

bool ProbeOracle::probe_slow(PlayerId p, ObjectId o) {
  if (p >= players() || o >= probed_[p].size()) reject_probe(p, o, "probe");
  if (injector_ != nullptr) {
    switch (injector_->on_probe_attempt(p)) {
      case faults::FaultInjector::Attempt::kCrashed:
        oracle_metrics().crashes.inc();
        if (recorder_ != nullptr) recorder_->crashed(p);
        throw faults::PlayerCrashedError(p);
      case faults::FaultInjector::Attempt::kFail: {
        // The probe was sent and the round spent; only the result is
        // lost, so the retry shows up in the invocation accounting.
        const auto failed_inv = bump(invocations_[p]);
        if (auditor_ != nullptr) auditor_->on_probe_attempt(p);
        oracle_metrics().failures.inc();
        if (recorder_ != nullptr) recorder_->probe_failed(p, o, failed_inv);
        throw faults::ProbeFailedError(p, o);
      }
      case faults::FaultInjector::Attempt::kOk:
        break;
    }
  }
  const auto inv = bump(invocations_[p]);
  if (auditor_ != nullptr) auditor_->on_probe_attempt(p);
  if (!probed_[p].get(o)) {
    bump(charged_[p]);
    probed_[p].set(o, true);
  }
  const bool value = noisy_read(p, o);
  values_[p].set(o, value);
  if (auditor_ != nullptr) auditor_->on_probe(p, o);
  if (recorder_ != nullptr) recorder_->probe(p, o, value, inv);
  return value;
}

void ProbeOracle::audit_block(PlayerId p, std::span<const ObjectId> objs) {
  auditor_->on_probe_block(p, objs);
}

ProbeOracle::ObjectSet::ObjectSet(const ProbeOracle& oracle, std::vector<ObjectId> objects)
    : objects_(std::move(objects)), mask_(oracle.objects()) {
  for (const auto o : objects_) {
    if (o >= mask_.size()) throw std::out_of_range("ProbeOracle::ObjectSet: object out of range");
    mask_.set(o, true);
  }
}

void ProbeOracle::probe_set(PlayerId p, const ObjectSet& set, bits::BitVector& out) {
  const auto objs = set.objects();
  if (injector_ != nullptr || recorder_ != nullptr) {
    probe_block(p, objs, out);
    return;
  }
  if (p >= players()) throw std::out_of_range("ProbeOracle::probe_set: player out of range");
  if (set.mask_.size() != objects()) {
    throw std::invalid_argument("ProbeOracle::probe_set: the set is over another object count");
  }
  // An empty block changes nothing, for a fork's non-member too.
  if (objs.empty()) return;
  // A fork's non-members have zero-width rows.
  if (probed_[p].size() != objects()) reject_probe(p, objs.front(), "probe_set");
  auto& probed = probed_[p];
  auto& values = values_[p];
  const auto want = set.mask_.words();
  const auto seen = probed.words();
  const auto held = values.words();
  const auto truth = truth_->row(p).words();
  const bool noisy = noise_.epsilon > 0.0;
  std::uint64_t first_probes = 0;
  for (std::size_t w = 0; w < want.size(); ++w) {
    const auto mask = want[w];
    if (mask == 0) continue;
    first_probes += static_cast<std::uint64_t>(std::popcount(mask & ~seen[w]));
    probed.set_word(w, seen[w] | mask);
    auto read = truth[w] & mask;
    if (noisy) [[unlikely]] {
      for (auto rest = mask; rest != 0; rest &= rest - 1) {
        const auto b = std::countr_zero(rest);
        if (noise_flip(p, static_cast<ObjectId>(w * 64 + static_cast<std::size_t>(b)))) {
          read ^= std::uint64_t{1} << b;
        }
      }
    }
    values.set_word(w, (held[w] & ~mask) | read);
  }
  bump(invocations_[p], objs.size());
  bump(charged_[p], first_probes);
  std::uint64_t word = 0;
  // tmwia-lint: allow(per-bit-loop) out is in report order, which the caller chose (Small Radius: part order), so each bit is a read from a scattered object
  for (std::size_t j = 0; j < objs.size(); ++j) {
    word |= static_cast<std::uint64_t>(values.get(objs[j])) << (j % 64);
    if (j % 64 == 63 || j + 1 == objs.size()) {
      out.set_word(j / 64, word);
      word = 0;
    }
  }
  if (auditor_ != nullptr) audit_block(p, objs);
}

bool ProbeOracle::fallback_read(PlayerId p, ObjectId o) const {
  return probed_[p].get(o) ? values_[p].get(o) : false;
}

bool ProbeOracle::probe_resilient_slow(PlayerId p, ObjectId o) {
  if (injector_->is_failed(p)) {
    injector_->note_fallback_read(p);
    oracle_metrics().fallback_reads.inc();
    return fallback_read(p, o);
  }
  const std::size_t budget = injector_->plan().retry_budget;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return probe(p, o);
    } catch (const faults::ProbeFailedError&) {
      if (attempt >= budget) break;  // budget exhausted: degrade
      injector_->note_retry(p);
      oracle_metrics().retries.inc();
    } catch (const faults::PlayerCrashedError&) {
      break;  // crash-stop: no point retrying
    }
  }
  if (!injector_->is_down(p)) {
    injector_->mark_degraded(p);
    oracle_metrics().degraded.inc();
    if (recorder_ != nullptr) recorder_->degraded(p);
  }
  injector_->note_fallback_read(p);
  oracle_metrics().fallback_reads.inc();
  return fallback_read(p, o);
}

bool ProbeOracle::probed_value(PlayerId p, ObjectId o) const {
  if (!probed_[p].get(o)) {
    throw std::logic_error("ProbeOracle::probed_value: entry was never probed");
  }
  if (auditor_ != nullptr) auditor_->on_read(p, o);
  return values_[p].get(o);
}

std::uint64_t ProbeOracle::total_invocations() const {
  std::uint64_t t = 0;
  for (const auto& c : invocations_) t += c.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t ProbeOracle::total_charged() const {
  std::uint64_t t = 0;
  for (const auto& c : charged_) t += c.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t ProbeOracle::max_invocations() const {
  std::uint64_t mx = 0;
  for (const auto& c : invocations_) {
    mx = std::max(mx, c.load(std::memory_order_relaxed));
  }
  return mx;
}

std::vector<std::uint64_t> ProbeOracle::snapshot() const {
  std::vector<std::uint64_t> s(players());
  for (std::size_t p = 0; p < players(); ++p) {
    s[p] = invocations_[p].load(std::memory_order_relaxed);
  }
  return s;
}

std::uint64_t ProbeOracle::rounds_since(const std::vector<std::uint64_t>& before) const {
  std::uint64_t mx = 0;
  for (std::size_t p = 0; p < players(); ++p) {
    mx = std::max(mx, invocations_[p].load(std::memory_order_relaxed) - before[p]);
  }
  return mx;
}

ProbeOracle::Ledger ProbeOracle::export_ledger() const {
  Ledger ledger;
  ledger.invocations.resize(players());
  ledger.charged.resize(players());
  for (std::size_t p = 0; p < players(); ++p) {
    ledger.invocations[p] = invocations_[p].load(std::memory_order_relaxed);
    ledger.charged[p] = charged_[p].load(std::memory_order_relaxed);
  }
  ledger.probed = probed_;
  ledger.values = values_;
  return ledger;
}

void ProbeOracle::restore_ledger(const Ledger& ledger) {
  if (ledger.invocations.size() != players() || ledger.charged.size() != players() ||
      ledger.probed.size() != players() || ledger.values.size() != players()) {
    throw std::invalid_argument("ProbeOracle::restore_ledger: player count mismatch");
  }
  for (const auto& row : ledger.probed) {
    if (row.size() != objects()) {
      throw std::invalid_argument("ProbeOracle::restore_ledger: object count mismatch");
    }
  }
  for (std::size_t p = 0; p < players(); ++p) {
    invocations_[p].store(ledger.invocations[p], std::memory_order_relaxed);
    charged_[p].store(ledger.charged[p], std::memory_order_relaxed);
  }
  probed_ = ledger.probed;
  values_ = ledger.values;
}

}  // namespace tmwia::billboard
