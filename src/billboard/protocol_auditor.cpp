#include "tmwia/billboard/protocol_auditor.hpp"

#include <algorithm>

namespace tmwia::billboard {

const char* to_string(AuditViolation::Kind kind) {
  switch (kind) {
    case AuditViolation::Kind::kDoubleProbe:
      return "double_probe";
    case AuditViolation::Kind::kPhantomPost:
      return "phantom_post";
    case AuditViolation::Kind::kReadBeforePost:
      return "read_before_post";
    case AuditViolation::Kind::kCostMismatch:
      return "cost_mismatch";
  }
  return "unknown";
}

ProtocolAuditor::ProtocolAuditor(std::size_t players, std::size_t objects)
    : players_(players),
      objects_(objects),
      ledgers_(players),
      round_probe_count_(players, 0),
      probed_this_round_(players, bits::BitVector(objects)),
      posted_(players, bits::BitVector(objects)) {}

void ProtocolAuditor::record(AuditViolation v) {
  const support::MutexLock lock(mu_);
  violations_.push_back(std::move(v));
}

void ProtocolAuditor::begin_round(std::uint64_t round) {
  round_active_ = true;
  round_ = round;
  rounds_.fetch_add(1, std::memory_order_relaxed);
  std::fill(round_probe_count_.begin(), round_probe_count_.end(), 0);
  round_probes_.clear();
  round_posts_.clear();
}

void ProtocolAuditor::end_round() {
  // A2: every published result must match a successful probe this round.
  for (const auto& [p, o] : round_posts_) {
    if (!probed_this_round_[p].get(o)) {
      record({AuditViolation::Kind::kPhantomPost, p, o, round_,
              "posted result has no matching probe this round"});
    }
    posted_[p].set(o, true);
  }
  // Sparse clear: only the bits this round actually touched.
  for (const auto& [p, o] : round_probes_) {
    posted_[p].set(o, true);  // the round is over; the result is public
    probed_this_round_[p].set(o, false);
  }
  round_active_ = false;
}

void ProtocolAuditor::on_probe_attempt(matrix::PlayerId p) {
  if (p < players_) ledgers_[p].attempts.fetch_add(1, std::memory_order_relaxed);
}

void ProtocolAuditor::on_probe(matrix::PlayerId p, matrix::ObjectId o) {
  if (p < players_) ledgers_[p].successes.fetch_add(1, std::memory_order_relaxed);
  if (round_active_) check_round_probe(p, o);
}

void ProtocolAuditor::on_probe_block(matrix::PlayerId p,
                                     std::span<const matrix::ObjectId> objs) {
  if (p < players_) {
    auto& ledger = ledgers_[p];
    ledger.attempts.fetch_add(objs.size(), std::memory_order_relaxed);
    ledger.successes.fetch_add(objs.size(), std::memory_order_relaxed);
  }
  if (!round_active_) return;
  for (const auto o : objs) check_round_probe(p, o);
}

void ProtocolAuditor::check_round_probe(matrix::PlayerId p, matrix::ObjectId o) {
  if (p >= players_ || o >= objects_) return;
  // A1: one successful probe per player per round. Transient failures
  // retried within the round are the same probe resent (they land in
  // the attempt ledger, not here).
  if (++round_probe_count_[p] > 1) {
    record({AuditViolation::Kind::kDoubleProbe, p, o, round_,
            "player landed a second successful probe in one round"});
  }
  probed_this_round_[p].set(o, true);
  round_probes_.emplace_back(p, o);
}

void ProtocolAuditor::on_post(matrix::PlayerId p, matrix::ObjectId o) {
  posts_.fetch_add(1, std::memory_order_relaxed);
  if (!round_active_ || p >= players_ || o >= objects_) return;
  round_posts_.emplace_back(p, o);
}

void ProtocolAuditor::on_read(matrix::PlayerId p, matrix::ObjectId o) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (!round_active_ || p >= players_ || o >= objects_) return;
  // A3: a result first probed this round is private to its prober
  // until the round ends. Results posted in earlier rounds are public.
  if (probed_this_round_[p].get(o) && !posted_[p].get(o)) {
    record({AuditViolation::Kind::kReadBeforePost, p, o, round_,
            "billboard read of a result not yet published"});
  }
}

void ProtocolAuditor::verify_invocations(const std::vector<std::uint64_t>& expected) {
  const std::size_t n = std::min(expected.size(), ledgers_.size());
  for (std::size_t p = 0; p < n; ++p) {
    const auto audited = ledgers_[p].attempts.load(std::memory_order_relaxed);
    if (audited != expected[p]) {
      record({AuditViolation::Kind::kCostMismatch, static_cast<matrix::PlayerId>(p), 0,
              round_,
              "audited " + std::to_string(audited) + " invocations, oracle ledger says " +
                  std::to_string(expected[p])});
    }
  }
  if (expected.size() != ledgers_.size()) {
    record({AuditViolation::Kind::kCostMismatch, 0, 0, round_,
            "ledger size mismatch: audited " + std::to_string(ledgers_.size()) +
                " players, expected " + std::to_string(expected.size())});
  }
}

void ProtocolAuditor::verify_totals(std::uint64_t total_probes, std::uint64_t rounds) {
  std::uint64_t total = 0;
  std::uint64_t mx = 0;
  for (const auto& ledger : ledgers_) {
    const auto v = ledger.attempts.load(std::memory_order_relaxed);
    total += v;
    mx = std::max(mx, v);
  }
  if (total != total_probes) {
    record({AuditViolation::Kind::kCostMismatch, 0, 0, round_,
            "audited " + std::to_string(total) + " total probes, report claims " +
                std::to_string(total_probes)});
  }
  if (mx != rounds) {
    record({AuditViolation::Kind::kCostMismatch, 0, 0, round_,
            "audited max " + std::to_string(mx) + " probes/player, report claims " +
                std::to_string(rounds) + " rounds"});
  }
}

AuditReport ProtocolAuditor::report() const {
  AuditReport r;
  r.rounds_audited = rounds_.load(std::memory_order_relaxed);
  for (const auto& ledger : ledgers_) {
    r.probes_audited += ledger.successes.load(std::memory_order_relaxed);
  }
  r.reads_audited = reads_.load(std::memory_order_relaxed);
  r.posts_audited = posts_.load(std::memory_order_relaxed);
  const support::MutexLock lock(mu_);
  r.violations = violations_;
  return r;
}

}  // namespace tmwia::billboard
