// ProtocolAuditor: (a) each seeded violation class is caught, (b) the
// real algorithm tower — Select, RSelect, Zero/Small/Large Radius,
// FindPreferences, scheduler runs, fault-injected runs — audits clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/billboard/strategies.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/rng.hpp"
#include "audit_json.hpp"
#include "solo_strategy.hpp"

namespace {

using namespace tmwia;
using billboard::AuditViolation;
using billboard::ProtocolAuditor;

std::size_t count_kind(const billboard::AuditReport& report, AuditViolation::Kind kind) {
  return static_cast<std::size_t>(
      std::count_if(report.violations.begin(), report.violations.end(),
                    [&](const AuditViolation& v) { return v.kind == kind; }));
}

/// A protocol-breaking strategy: every time it gets a result it
/// immediately probes a SECOND object in the same round, bypassing the
/// scheduler's one-probe budget by talking to the oracle directly.
class DoubleProbeStrategy final : public billboard::PlayerStrategy {
 public:
  DoubleProbeStrategy(billboard::ProbeOracle& oracle, matrix::PlayerId self,
                      std::size_t objects)
      : oracle_(&oracle), self_(self), objects_(objects) {}

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView&) override {
    return next_ < objects_ ? std::optional<billboard::ObjectId>(next_) : std::nullopt;
  }
  void on_result(billboard::ObjectId, bool) override {
    const auto extra = (next_ + 1) % objects_;
    (void)oracle_->probe(self_, static_cast<billboard::ObjectId>(extra));  // the cheat
    ++next_;
  }
  [[nodiscard]] bool done() const override { return next_ >= objects_; }

 private:
  billboard::ProbeOracle* oracle_;
  matrix::PlayerId self_;
  std::size_t objects_;
  std::size_t next_ = 0;
};

/// A snooping strategy: reads player 0's result for the object player 0
/// probes THIS round (SoloStrategy probes object r in round r), before
/// the round ends and the result is posted.
class SnoopStrategy final : public billboard::PlayerStrategy {
 public:
  SnoopStrategy(billboard::ProbeOracle& oracle, std::size_t objects)
      : oracle_(&oracle), objects_(objects) {}

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override {
    const auto target = static_cast<billboard::ObjectId>(view.round());
    if (target < objects_ && oracle_->probed_mask(0).get(target)) {
      (void)oracle_->probed_value(0, target);  // the leak
    }
    return next_ < objects_ ? std::optional<billboard::ObjectId>(next_) : std::nullopt;
  }
  void on_result(billboard::ObjectId, bool) override { ++next_; }
  [[nodiscard]] bool done() const override { return next_ >= objects_; }

 private:
  billboard::ProbeOracle* oracle_;
  std::size_t objects_;
  std::size_t next_ = 0;
};

matrix::Instance small_instance(std::size_t n, std::uint64_t seed, double frac = 0.5,
                                std::size_t d = 0) {
  rng::Rng gen(seed);
  return matrix::planted_community(n, n, {frac, d}, gen);
}

TEST(ProtocolAuditor, CatchesDoubleProbeInOneRound) {
  auto inst = small_instance(8, 1);
  billboard::ProbeOracle oracle(inst.matrix);
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies(8);
  strategies[0] = std::make_unique<DoubleProbeStrategy>(oracle, 0, 8);
  billboard::RoundScheduler sched(oracle);
  sched.run(strategies, 16);

  const auto report = auditor.report();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_kind(report, AuditViolation::Kind::kDoubleProbe), 1u);
  EXPECT_EQ(count_kind(report, AuditViolation::Kind::kReadBeforePost), 0u);
}

TEST(ProtocolAuditor, CatchesReadBeforePost) {
  auto inst = small_instance(8, 2);
  billboard::ProbeOracle oracle(inst.matrix);
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  // Player 0 probes object r in round r; player 1 snoops it in-round.
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies(8);
  strategies[0] = std::make_unique<billboard::SoloStrategy>(8);
  strategies[1] = std::make_unique<SnoopStrategy>(oracle, 8);
  billboard::RoundScheduler sched(oracle);
  sched.run(strategies, 16);

  const auto report = auditor.report();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_kind(report, AuditViolation::Kind::kReadBeforePost), 1u);
  EXPECT_EQ(count_kind(report, AuditViolation::Kind::kDoubleProbe), 0u);
}

TEST(ProtocolAuditor, CatchesPhantomPost) {
  ProtocolAuditor auditor(4, 4);
  auditor.begin_round(0);
  auditor.on_post(2, 3);  // a post with no probe behind it
  auditor.end_round();

  const auto report = auditor.report();
  EXPECT_EQ(count_kind(report, AuditViolation::Kind::kPhantomPost), 1u);
  EXPECT_EQ(report.violations[0].player, 2u);
  EXPECT_EQ(report.violations[0].object, 3u);
}

TEST(ProtocolAuditor, CatchesCostAccountingMismatch) {
  auto inst = small_instance(8, 3);
  billboard::ProbeOracle oracle(inst.matrix);
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  for (matrix::PlayerId p = 0; p < 8; ++p) {
    for (matrix::ObjectId o = 0; o < 4; ++o) (void)oracle.probe(p, o);
  }

  // Straight ledgers agree ...
  auditor.verify_invocations(oracle.snapshot());
  auditor.verify_totals(oracle.total_invocations(), oracle.max_invocations());
  EXPECT_TRUE(auditor.report().clean());

  // ... a tampered per-player ledger is caught ...
  auto cooked = oracle.snapshot();
  cooked[3] += 2;
  auditor.verify_invocations(cooked);
  EXPECT_EQ(count_kind(auditor.report(), AuditViolation::Kind::kCostMismatch), 1u);

  // ... and so is a report whose totals hide probe spend.
  auditor.verify_totals(oracle.total_invocations() - 1, oracle.max_invocations());
  EXPECT_EQ(count_kind(auditor.report(), AuditViolation::Kind::kCostMismatch), 2u);
}

TEST(ProtocolAuditor, ReportJsonIsStructured) {
  ProtocolAuditor auditor(2, 2);
  auditor.begin_round(0);
  auditor.on_post(1, 1);
  auditor.end_round();
  const auto json = audit_json(auditor.report());
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"phantom_post\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\":["), std::string::npos);
}

// One player's probes, some of them re-probes, as blocks and singles.
const std::vector<std::vector<matrix::ObjectId>> kBlocks = {
    {0, 1, 2}, {5, 3}, {}, {1, 7, 6, 0}, {63, 64, 65, 127}, {2}};

/// Audited probes of kBlocks for players 0..3, through probe_block when
/// `blocks`, else one probe() per object; returns the outputs.
std::vector<bits::BitVector> probe_all(billboard::ProbeOracle& oracle, bool blocks) {
  std::vector<bits::BitVector> outs;
  for (matrix::PlayerId p = 0; p < 4; ++p) {
    for (const auto& objs : kBlocks) {
      bits::BitVector out(objs.size());
      if (blocks) {
        oracle.probe_block(p, objs, out);
      } else {
        for (std::size_t j = 0; j < objs.size(); ++j) out.set(j, oracle.probe(p, objs[j]));
      }
      outs.push_back(out);
    }
  }
  return outs;
}

// probe_block reports a block with one hook; its ledgers, checks and
// report equal those of the same probes made one at a time, outside a
// round and inside one (where a block of three probes is two A1
// violations, as three single probes are).
TEST(ProtocolAuditor, BlockHookMatchesPerProbeHooks) {
  auto inst = small_instance(128, 12);
  billboard::ProbeOracle by_block(inst.matrix);
  billboard::ProbeOracle by_probe(inst.matrix);
  ProtocolAuditor block_auditor(by_block.players(), by_block.objects());
  ProtocolAuditor probe_auditor(by_probe.players(), by_probe.objects());
  by_block.set_auditor(&block_auditor);
  by_probe.set_auditor(&probe_auditor);

  EXPECT_TRUE(probe_all(by_block, true) == probe_all(by_probe, false));
  block_auditor.verify_invocations(by_block.snapshot());
  probe_auditor.verify_invocations(by_probe.snapshot());
  EXPECT_TRUE(block_auditor.report().clean()) << audit_json(block_auditor.report());
  EXPECT_EQ(audit_json(block_auditor.report()), audit_json(probe_auditor.report()));
  EXPECT_EQ(block_auditor.report().probes_audited, by_block.total_invocations());

  const std::vector<matrix::ObjectId> three = {9, 10, 11};
  block_auditor.begin_round(0);
  probe_auditor.begin_round(0);
  bits::BitVector out(three.size());
  by_block.probe_block(2, three, out);
  for (const auto o : three) (void)by_probe.probe(2, o);
  block_auditor.end_round();
  probe_auditor.end_round();
  block_auditor.verify_invocations(by_block.snapshot());
  probe_auditor.verify_invocations(by_probe.snapshot());
  const auto report = block_auditor.report();
  EXPECT_EQ(count_kind(report, AuditViolation::Kind::kDoubleProbe), 2u) << audit_json(report);
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].object, 10u);
  EXPECT_EQ(report.violations[1].object, 11u);
  EXPECT_EQ(audit_json(report), audit_json(probe_auditor.report()));
  EXPECT_EQ(report.probes_audited, by_block.total_invocations());
}

// ---- clean audits over the real tower -------------------------------

/// Attach a fresh auditor, run `body(oracle)`, cross-check every cost
/// ledger, and assert a clean report.
template <typename Body>
void expect_clean_audit(billboard::ProbeOracle& oracle, Body body) {
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);
  body();
  auditor.verify_invocations(oracle.snapshot());
  const auto report = auditor.report();
  EXPECT_TRUE(report.clean()) << audit_json(report);
  oracle.set_auditor(nullptr);
}

TEST(ProtocolAuditor, SelectAndRSelectAuditClean) {
  auto inst = small_instance(32, 4);
  billboard::ProbeOracle oracle(inst.matrix);
  expect_clean_audit(oracle, [&] {
    std::vector<bits::BitVector> cands{inst.matrix.row(0), inst.matrix.row(31)};
    const auto params = core::Params::practical();
    for (matrix::PlayerId p = 0; p < 4; ++p) {
      (void)core::select_closest(cands, 0,
                                 [&](std::uint32_t j) { return oracle.probe(p, j); });
      rng::Rng prng = rng::Rng(4).split(p);
      (void)core::rselect_closest(
          cands, 32, [&](std::uint32_t j) { return oracle.probe(p, j); }, prng, params);
    }
  });
}

TEST(ProtocolAuditor, ZeroRadiusAuditsCleanWithReportTotals) {
  auto inst = small_instance(64, 5);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  const auto players = [&] {
    std::vector<matrix::PlayerId> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<matrix::PlayerId>(i);
    return v;
  }();
  std::vector<std::uint32_t> objects(64);
  for (std::size_t i = 0; i < objects.size(); ++i) objects[i] = static_cast<std::uint32_t>(i);

  (void)core::zero_radius_bits(oracle, &board, players, objects, 0.5,
                               core::Params::practical(), rng::Rng(5));
  auditor.verify_invocations(oracle.snapshot());
  auditor.verify_totals(oracle.total_invocations(), oracle.max_invocations());
  const auto report = auditor.report();
  EXPECT_TRUE(report.clean()) << audit_json(report);
  // No faults: every attempt succeeds, the leaves' blocks included.
  EXPECT_EQ(report.probes_audited, oracle.total_invocations());
  EXPECT_GT(report.probes_audited, 0u);
}

TEST(ProtocolAuditor, FindPreferencesTowerAuditsClean) {
  // D=0 -> Zero Radius, D=2 -> Small Radius, D=16 -> Large Radius: all
  // three Fig. 1 branches run under audit with RunReport cross-checks.
  for (const std::size_t D : {std::size_t{0}, std::size_t{2}, std::size_t{16}}) {
    auto inst = small_instance(128, 6 + D, 0.5, D / 2);
    billboard::ProbeOracle oracle(inst.matrix);
    billboard::Billboard board;
    ProtocolAuditor auditor(oracle.players(), oracle.objects());
    oracle.set_auditor(&auditor);

    const auto report =
        core::find_preferences(oracle, &board, 0.5, D, core::Params::practical(),
                               rng::Rng(6 + D));
    auditor.verify_invocations(oracle.snapshot());
    auditor.verify_totals(report.total_probes, report.rounds);
    const auto audit = auditor.report();
    EXPECT_TRUE(audit.clean()) << "D=" << D << ": " << audit_json(audit);
  }
}

TEST(ProtocolAuditor, UnknownDAuditsClean) {
  auto inst = small_instance(48, 7, 0.5, 1);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  const auto report = core::find_preferences_unknown_d(oracle, &board, 0.5,
                                                       core::Params::practical(), rng::Rng(7));
  auditor.verify_invocations(oracle.snapshot());
  auditor.verify_totals(report.total_probes, report.rounds);
  const auto audit = auditor.report();
  EXPECT_TRUE(audit.clean()) << audit_json(audit);
}

TEST(ProtocolAuditor, FindPreferencesWithFaultPlanAuditsClean) {
  // The satellite case: the full algorithm under an active fault plan
  // (transient probe failures + post drops) still satisfies every
  // audited invariant — retries are charged, nothing double-probes,
  // and the RunReport totals stay honest.
  auto inst = small_instance(64, 8);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  faults::FaultInjector injector(
      faults::FaultPlan::parse("seed=11,probe=0.05,retry=3,drop=0.05,crash=0.05@40"),
      oracle.players());
  oracle.set_fault_injector(&injector);
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  const auto report = core::find_preferences_unknown_d(oracle, &board, 0.5,
                                                       core::Params::practical(), rng::Rng(8));
  auditor.verify_invocations(oracle.snapshot());
  auditor.verify_totals(report.total_probes, report.rounds);
  const auto audit = auditor.report();
  EXPECT_TRUE(audit.clean()) << audit_json(audit);
  EXPECT_GT(report.outputs.size(), 0u);
}

TEST(ProtocolAuditor, ScheduledRunAuditsClean) {
  auto inst = small_instance(16, 9);
  billboard::ProbeOracle oracle(inst.matrix);
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  strategies.reserve(16);
  for (matrix::PlayerId p = 0; p < 16; ++p) {
    if (p % 2 == 0) {
      strategies.push_back(std::make_unique<billboard::SoloStrategy>(16));
    } else {
      strategies.push_back(std::make_unique<billboard::MimicStrategy>(
          p, 16, 6, 4, rng::Rng(9).split(p), 8));
    }
  }
  billboard::RoundScheduler sched(oracle);
  const auto res = sched.run(strategies, 64);
  auditor.verify_invocations(oracle.snapshot());
  const auto report = auditor.report();
  EXPECT_TRUE(report.clean()) << audit_json(report);
  EXPECT_GT(report.rounds_audited, 0u);
  EXPECT_GT(report.posts_audited, 0u);
  EXPECT_TRUE(res.all_done);
}

TEST(ProtocolAuditor, ScheduledRunWithFaultsAuditsClean) {
  auto inst = small_instance(16, 10);
  billboard::ProbeOracle oracle(inst.matrix);
  faults::FaultInjector injector(
      faults::FaultPlan::parse("seed=3,crash=0.2@4-12,recover=6,probe=0.1,retry=2,drop=0.1"),
      oracle.players());
  oracle.set_fault_injector(&injector);
  ProtocolAuditor auditor(oracle.players(), oracle.objects());
  oracle.set_auditor(&auditor);

  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  strategies.reserve(16);
  for (matrix::PlayerId p = 0; p < 16; ++p) {
    strategies.push_back(std::make_unique<billboard::SoloStrategy>(16));
  }
  billboard::RoundScheduler sched(oracle);
  (void)sched.run(strategies, 128);
  auditor.verify_invocations(oracle.snapshot());
  const auto report = auditor.report();
  EXPECT_TRUE(report.clean()) << audit_json(report);
}

}  // namespace
