// Tests for the fault-injection subsystem: plan grammar, deterministic
// replay, faithful retry accounting, and graceful degradation of the
// algorithm tower under crash-stop / probe-failure / post-loss faults.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/faults/fault_plan.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "solo_strategy.hpp"

namespace tmwia {
namespace {

using faults::FaultInjector;
using faults::FaultPlan;
using faults::kNever;

TEST(FaultPlan, ParsesFullGrammar) {
  const auto plan =
      FaultPlan::parse("seed=7,crash=0.2@16-64,recover=8,probe=0.05,retry=4,drop=0.1,delay=0.5@3");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.crash_rate, 0.2);
  EXPECT_EQ(plan.crash_round_lo, 16u);
  EXPECT_EQ(plan.crash_round_hi, 64u);
  EXPECT_EQ(plan.recover_after, 8u);
  EXPECT_DOUBLE_EQ(plan.probe_fail_rate, 0.05);
  EXPECT_EQ(plan.retry_budget, 4u);
  EXPECT_DOUBLE_EQ(plan.post_drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.post_delay_rate, 0.5);
  EXPECT_EQ(plan.post_delay_rounds, 3u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("crash"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash=0.1@9-3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("probe=-0.1"), std::invalid_argument);
  // NaN fails every comparison, so the range check must refuse it too.
  for (const char* spec : {"probe=nan", "drop=nan", "crash=nan@1-2", "delay=nan@3",
                           "probe=-nan", "drop=inf"}) {
    try {
      (void)FaultPlan::parse(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rate out of [0,1]"), std::string::npos) << spec;
    }
  }
  EXPECT_THROW(FaultPlan::parse("delay=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("warp=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=x"), std::invalid_argument);
}

TEST(FaultPlan, CrashWindowsAreDeterministicAndRateBound) {
  auto plan = FaultPlan::parse("seed=11,crash=0.25@10-20,recover=5");
  std::size_t crashed = 0;
  for (matrix::PlayerId p = 0; p < 1000; ++p) {
    const auto w = plan.crash_window(p);
    EXPECT_EQ(w.at, plan.crash_window(p).at);  // pure in (seed, p)
    if (w.at == kNever) continue;
    ++crashed;
    EXPECT_GE(w.at, 10u);
    EXPECT_LE(w.at, 20u);
    EXPECT_EQ(w.recover, w.at + 5);
  }
  // ~25% of 1000 players; generous deterministic envelope.
  EXPECT_GT(crashed, 180u);
  EXPECT_LT(crashed, 320u);

  plan.explicit_crashes.push_back({3, {7, kNever}});
  EXPECT_EQ(plan.crash_window(3).at, 7u);
  EXPECT_EQ(plan.crash_window(3).recover, kNever);
}

// Acceptance 1: crash-stopping up to 20% of the players mid-run leaves
// the surviving typical players with bounded error — no throw, no
// abandoned all-zero rows.
TEST(FaultTolerance, SurvivorsKeepBoundedErrorUnderCrashes) {
  rng::Rng gen(3);
  auto inst = matrix::planted_community(256, 256, {0.5, 2}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;

  const auto plan = FaultPlan::parse("seed=5,crash=0.2@40-400");
  FaultInjector injector(plan, inst.matrix.players());
  oracle.set_fault_injector(&injector);

  const auto res = core::find_preferences(oracle, &board, 0.5, 4, core::Params::practical(),
                                          rng::Rng(4));

  const auto report = injector.report();
  EXPECT_FALSE(report.crashed.empty());
  EXPECT_LE(report.crashed.size(), inst.matrix.players() / 4);

  std::size_t survivors = 0;
  for (matrix::PlayerId p : inst.communities[0]) {
    if (injector.is_failed(p)) continue;
    ++survivors;
    EXPECT_GT(res.outputs[p].count_ones(), 0u) << "player " << p << " left with a zero row";
    EXPECT_LE(res.outputs[p].hamming(inst.matrix.row(p)), 24u) << "player " << p;
  }
  EXPECT_GT(survivors, inst.communities[0].size() / 2);
}

// Acceptance 2: transient probe failures burn invocations (the probe
// was sent, the result lost), so every retry shows up in the
// theorem-bound cost and therefore in the round accounting.
TEST(FaultTolerance, RetriesAreChargedToInvocationsAndRounds) {
  rng::Rng gen(7);
  auto inst = matrix::planted_community(128, 128, {0.5, 0}, gen);

  billboard::ProbeOracle clean(inst.matrix);
  const auto base = core::find_preferences(clean, nullptr, 0.5, 0, core::Params::practical(),
                                           rng::Rng(8));

  billboard::ProbeOracle oracle(inst.matrix);
  const auto plan = FaultPlan::parse("seed=9,probe=0.1,retry=6");
  FaultInjector injector(plan, inst.matrix.players());
  oracle.set_fault_injector(&injector);
  const auto res = core::find_preferences(oracle, nullptr, 0.5, 0, core::Params::practical(),
                                          rng::Rng(8));

  const auto report = injector.report();
  EXPECT_GT(report.probe_failures, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_LE(report.retries, report.probe_failures);

  // invocations = successful attempts + failed attempts, and only
  // successful attempts on fresh pairs are charged: the failure tax is
  // visible in the gap.
  for (matrix::PlayerId p = 0; p < inst.matrix.players(); ++p) {
    EXPECT_GE(oracle.invocations(p), oracle.export_ledger().charged[p]);
  }
  EXPECT_GE(oracle.total_invocations(), oracle.total_charged() + report.probe_failures);

  // With a retry budget deep enough that exhaustion never fires, the
  // workload is identical and the retry tax strictly inflates rounds.
  EXPECT_TRUE(report.degraded.empty());
  EXPECT_GT(res.rounds, base.rounds);
  EXPECT_EQ(res.outputs, base.outputs);  // retries change cost, not results
}

// Acceptance 3: the same FaultPlan seed replays byte-identically.
TEST(FaultTolerance, SameSeedReproducesByteIdenticalReports) {
  rng::Rng gen(11);
  auto inst = matrix::planted_community(192, 192, {0.5, 2}, gen);
  const auto plan = FaultPlan::parse("seed=13,crash=0.15@30-300,probe=0.05,retry=3,drop=0.05");

  auto run = [&] {
    billboard::ProbeOracle oracle(inst.matrix);
    billboard::Billboard board;
    FaultInjector injector(plan, inst.matrix.players());
    oracle.set_fault_injector(&injector);
    auto res = core::find_preferences(oracle, &board, 0.5, 4, core::Params::practical(),
                                      rng::Rng(14));
    return std::make_pair(injector.report(), std::move(res.outputs));
  };

  const auto [report_a, outputs_a] = run();
  const auto [report_b, outputs_b] = run();
  EXPECT_EQ(report_a, report_b);
  EXPECT_EQ(report_a.to_string(), report_b.to_string());
  EXPECT_EQ(outputs_a, outputs_b);
}

// Losing every post must not wedge the vote: players that find an empty
// billboard are flagged orphaned and keep their own best effort.
TEST(FaultTolerance, TotalPostLossOrphansButDoesNotThrow) {
  rng::Rng gen(17);
  auto inst = matrix::planted_community(64, 64, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  FaultInjector injector(FaultPlan::parse("seed=1,drop=1"), inst.matrix.players());
  oracle.set_fault_injector(&injector);

  const auto res = core::find_preferences(oracle, &board, 0.5, 0, core::Params::practical(),
                                          rng::Rng(18));
  ASSERT_EQ(res.outputs.size(), 64u);
  const auto report = injector.report();
  EXPECT_GT(report.posts_dropped, 0u);
  EXPECT_FALSE(report.orphaned.empty());
}

// No-fault invariant: an attached injector with an empty plan changes
// nothing — outputs and accounting are byte-identical to no injector.
TEST(FaultTolerance, EmptyPlanIsByteIdenticalToNoInjector) {
  rng::Rng gen(19);
  auto inst = matrix::planted_community(96, 96, {0.5, 2}, gen);

  billboard::ProbeOracle plain(inst.matrix);
  const auto base = core::find_preferences(plain, nullptr, 0.5, 3, core::Params::practical(),
                                           rng::Rng(20));

  billboard::ProbeOracle oracle(inst.matrix);
  FaultInjector injector(FaultPlan{}, inst.matrix.players());
  oracle.set_fault_injector(&injector);
  const auto res = core::find_preferences(oracle, nullptr, 0.5, 3, core::Params::practical(),
                                          rng::Rng(20));

  EXPECT_EQ(res.outputs, base.outputs);
  EXPECT_EQ(res.rounds, base.rounds);
  EXPECT_EQ(oracle.total_invocations(), plain.total_invocations());
  EXPECT_EQ(injector.report(), faults::FaultInjector(FaultPlan{}, 96).report());
}

// --- RoundScheduler under faults -----------------------------------

TEST(SchedulerFaults, CrashWindowWithRecoveryCostsExactlyItsRounds) {
  rng::Rng gen(23);
  auto inst = matrix::uniform_random(4, 16, gen);
  billboard::ProbeOracle oracle(inst.matrix);

  FaultPlan plan;
  plan.explicit_crashes.push_back({2, {5, 10}});  // down rounds [5, 10)
  FaultInjector injector(plan, 4);
  oracle.set_fault_injector(&injector);

  billboard::RoundScheduler sched(oracle);
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  std::vector<billboard::SoloStrategy*> solos;
  for (int p = 0; p < 4; ++p) {
    auto s = std::make_unique<billboard::SoloStrategy>(16);
    solos.push_back(s.get());
    strategies.push_back(std::move(s));
  }
  const auto res = sched.run(strategies, 1000);

  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(res.crash_skips, 5u);
  EXPECT_EQ(res.rounds, 21u);  // 16 probes + the 5 lost rounds
  EXPECT_EQ(oracle.invocations(2), 16u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(solos[p]->estimate(), inst.matrix.row(p));
  }
  const auto report = injector.report();
  EXPECT_EQ(report.crashed, std::vector<matrix::PlayerId>{2});
  EXPECT_EQ(report.recovered, std::vector<matrix::PlayerId>{2});
}

TEST(SchedulerFaults, PermanentCrashDoesNotWedgeTheRun) {
  rng::Rng gen(29);
  auto inst = matrix::uniform_random(3, 8, gen);
  billboard::ProbeOracle oracle(inst.matrix);

  FaultPlan plan;
  plan.explicit_crashes.push_back({0, {2, kNever}});
  FaultInjector injector(plan, 3);
  oracle.set_fault_injector(&injector);

  billboard::RoundScheduler sched(oracle);
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  for (int p = 0; p < 3; ++p) {
    strategies.push_back(std::make_unique<billboard::SoloStrategy>(8));
  }
  const auto res = sched.run(strategies, 1000);

  // The dead player cannot finish, but the run ends as soon as the
  // survivors do instead of spinning to the round cap.
  EXPECT_FALSE(res.all_done);
  EXPECT_EQ(res.rounds, 8u);
  EXPECT_EQ(oracle.invocations(0), 2u);
  EXPECT_EQ(oracle.invocations(1), 8u);
}

TEST(SchedulerFaults, ProbeFailuresStallButDoNotCorruptSoloPlayers) {
  rng::Rng gen(31);
  auto inst = matrix::uniform_random(6, 32, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  FaultInjector injector(FaultPlan::parse("seed=3,probe=0.2,retry=2"), 6);
  oracle.set_fault_injector(&injector);

  billboard::RoundScheduler sched(oracle);
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  std::vector<billboard::SoloStrategy*> solos;
  for (int p = 0; p < 6; ++p) {
    auto s = std::make_unique<billboard::SoloStrategy>(32);
    solos.push_back(s.get());
    strategies.push_back(std::move(s));
  }
  const auto res = sched.run(strategies, 10000);

  EXPECT_TRUE(res.all_done);
  EXPECT_GT(res.probe_failures, 0u);
  for (int p = 0; p < 6; ++p) {
    // Failures cost rounds and invocations but never a wrong value.
    EXPECT_EQ(solos[p]->estimate(), inst.matrix.row(p));
    EXPECT_GE(oracle.invocations(p), 32u);
  }
}

/// Posts one vector per round on a fixed channel, probing in order.
class ChattyStrategy final : public billboard::PlayerStrategy {
 public:
  explicit ChattyStrategy(std::size_t objects) : estimate_(objects) {}
  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView&) override {
    if (done()) return std::nullopt;
    return static_cast<billboard::ObjectId>(next_);
  }
  void on_result(billboard::ObjectId o, bool value) override {
    estimate_.set(o, value);
    ++next_;
  }
  std::vector<billboard::PendingPost> posts() override {
    return {{"chat", estimate_}};
  }
  [[nodiscard]] bool done() const override { return next_ >= estimate_.size(); }

 private:
  bits::BitVector estimate_;
  std::size_t next_ = 0;
};

/// Two ChattyStrategy players over `objects` under a RoundScheduler:
/// the schedule result and, by the flight log, how many vector posts
/// reached the board.
std::pair<billboard::ScheduleResult, std::size_t> run_chatty(billboard::ProbeOracle& oracle,
                                                             std::size_t objects) {
  std::ostringstream log;
  billboard::ScheduleResult res;
  {
    obs::FlightRecorder recorder(log);
    oracle.set_recorder(&recorder);
    billboard::RoundScheduler sched(oracle);
    std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
    strategies.push_back(std::make_unique<ChattyStrategy>(objects));
    strategies.push_back(std::make_unique<ChattyStrategy>(objects));
    res = sched.run(strategies, 100);
    oracle.set_recorder(nullptr);
  }
  const std::string text = log.str();
  std::size_t posts = 0;
  for (auto at = text.find("vector_post"); at != std::string::npos;
       at = text.find("vector_post", at + 1)) {
    ++posts;
  }
  return {res, posts};
}

TEST(SchedulerFaults, DelayedPostsLandLateButLand) {
  rng::Rng gen(37);
  auto inst = matrix::uniform_random(2, 8, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  FaultInjector injector(FaultPlan::parse("seed=2,delay=1@3"), 2);
  oracle.set_fault_injector(&injector);

  const auto [res, posts] = run_chatty(oracle, 8);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(res.posts_delayed, 16u);  // every post of both players
  // Nothing vanished: every delayed post reached the board.
  EXPECT_EQ(posts, 16u);
}

TEST(SchedulerFaults, DroppedPostsNeverReachTheBoard) {
  rng::Rng gen(41);
  auto inst = matrix::uniform_random(2, 4, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  FaultInjector injector(FaultPlan::parse("seed=2,drop=1"), 2);
  oracle.set_fault_injector(&injector);

  const auto [res, posts] = run_chatty(oracle, 4);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(res.posts_dropped, 8u);
  EXPECT_EQ(posts, 0u);
}

}  // namespace
}  // namespace tmwia
