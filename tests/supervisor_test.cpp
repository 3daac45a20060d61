// Tests for engine::Supervisor: strike/backoff/quarantine semantics,
// phase deadlines, degraded-but-complete runs, the monotone round clock
// across phases, and the injector orphan hand-off.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/engine/supervisor.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/faults/fault_plan.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "solo_strategy.hpp"

namespace tmwia {
namespace {

using billboard::PlayerStrategy;
using billboard::RoundView;

matrix::Instance small_instance(std::size_t n, std::uint64_t seed) {
  rng::Rng gen(seed);
  return matrix::planted_community(n, n, {0.5, 0}, gen);
}

/// The round numbers of a flight log's round_begin records, in order.
std::vector<std::uint64_t> logged_rounds(const std::string& log) {
  const std::string key = "\"ev\":\"round_begin\",\"round\":";
  std::vector<std::uint64_t> rounds;
  for (auto at = log.find(key); at != std::string::npos; at = log.find(key, at + 1)) {
    rounds.push_back(std::stoull(log.substr(at + key.size())));
  }
  return rounds;
}

/// Throws on its first `failures` probe decisions, then behaves like a
/// SoloStrategy.
class FlakyStrategy final : public PlayerStrategy {
 public:
  FlakyStrategy(std::size_t objects, std::size_t failures)
      : solo_(objects), failures_(failures) {}

  std::optional<billboard::ObjectId> next_probe(const RoundView& view) override {
    if (calls_++ < failures_) throw std::runtime_error("flaky");
    return solo_.next_probe(view);
  }
  void on_result(billboard::ObjectId o, bool value) override { solo_.on_result(o, value); }
  [[nodiscard]] bool done() const override { return solo_.done(); }

  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  billboard::SoloStrategy solo_;
  std::size_t failures_;
  std::size_t calls_ = 0;
};

std::vector<std::unique_ptr<PlayerStrategy>> solo_strategies(std::size_t n) {
  std::vector<std::unique_ptr<PlayerStrategy>> s;
  for (std::size_t p = 0; p < n; ++p) {
    s.push_back(std::make_unique<billboard::SoloStrategy>(n));
  }
  return s;
}

TEST(Supervisor, HealthyRunCompletesUndegraded) {
  const auto inst = small_instance(8, 1);
  billboard::ProbeOracle oracle(inst.matrix);
  auto strategies = solo_strategies(8);
  engine::Supervisor sup(oracle);
  const auto res = sup.run(strategies, {{"phase:0", 32}});
  EXPECT_FALSE(res.degraded());
  EXPECT_TRUE(res.quarantined.empty());
  EXPECT_TRUE(res.unmet_phases.empty());
  EXPECT_EQ(res.strikes, 0u);
  ASSERT_EQ(res.phases.size(), 1u);
  EXPECT_TRUE(res.phases[0].met_deadline);
  EXPECT_TRUE(res.phases[0].result.all_done);
  // Ownership returned intact.
  for (const auto& s : strategies) EXPECT_NE(s, nullptr);
}

TEST(Supervisor, FewStrikesBackOffButComplete) {
  const auto inst = small_instance(8, 2);
  billboard::ProbeOracle oracle(inst.matrix);
  auto strategies = solo_strategies(8);
  // 2 failures < max_strikes=3: the player is benched twice, never
  // quarantined, and still finishes.
  strategies[3] = std::make_unique<FlakyStrategy>(8, 2);
  engine::Supervisor sup(oracle, {.max_strikes = 3, .backoff_base = 2, .backoff_cap = 8});
  const auto res = sup.run(strategies, {{"phase:0", 64}});
  EXPECT_FALSE(res.degraded());
  EXPECT_EQ(res.strikes, 2u);
  EXPECT_GT(res.benched_rounds, 0u);
  ASSERT_EQ(res.phases.size(), 1u);
  EXPECT_TRUE(res.phases[0].result.all_done);
  // The scheduler's own permanent-failure path was never triggered.
  EXPECT_TRUE(res.phases[0].result.failed_strategies.empty());
}

TEST(Supervisor, StrikeOutQuarantinesAndRunCompletes) {
  const auto inst = small_instance(8, 3);
  billboard::ProbeOracle oracle(inst.matrix);
  auto strategies = solo_strategies(8);
  strategies[5] = std::make_unique<FlakyStrategy>(8, 1000);  // never recovers
  engine::Supervisor sup(oracle, {.max_strikes = 3, .backoff_base = 1, .backoff_cap = 4});
  const auto res = sup.run(strategies, {{"phase:0", 128}});
  EXPECT_TRUE(res.degraded());
  ASSERT_EQ(res.quarantined.size(), 1u);
  EXPECT_EQ(res.quarantined[0], 5u);
  EXPECT_EQ(res.strikes, 3u);  // quarantined at exactly max_strikes
  // Everyone else finished: the phase met its deadline (the quarantined
  // player reports done, the loss shows in `quarantined`, not a stall).
  ASSERT_EQ(res.phases.size(), 1u);
  EXPECT_TRUE(res.phases[0].met_deadline);
  EXPECT_TRUE(res.unmet_phases.empty());
}

TEST(Supervisor, TinyBudgetRecordsUnmetPhase) {
  const auto inst = small_instance(8, 4);
  billboard::ProbeOracle oracle(inst.matrix);
  auto strategies = solo_strategies(8);
  std::ostringstream log;
  engine::SupervisorResult res;
  {
    obs::FlightRecorder recorder(log);
    oracle.set_recorder(&recorder);
    engine::Supervisor sup(oracle);
    // Solo needs 8 rounds; phase 0's budget of 3 cannot make it. Phase 1
    // finishes the job.
    res = sup.run(strategies, {{"phase:0", 3}, {"phase:1", 32}});
    oracle.set_recorder(nullptr);
  }
  EXPECT_TRUE(res.degraded());
  ASSERT_EQ(res.unmet_phases.size(), 1u);
  EXPECT_EQ(res.unmet_phases[0], "phase:0");
  ASSERT_EQ(res.phases.size(), 2u);
  EXPECT_FALSE(res.phases[0].met_deadline);
  EXPECT_TRUE(res.phases[1].met_deadline);
  EXPECT_EQ(res.phases[1].cum_rounds, res.phases[0].result.rounds + res.phases[1].result.rounds);
  // Monotone round clock across phases: phase 1 numbers its rounds on
  // from phase 0's 0, 1, 2 (and the all-done probe round, touched but
  // not counted), so a phase that restarted its clock at 0 fails here.
  const auto rounds = logged_rounds(log.str());
  ASSERT_GE(rounds.size(), res.phases[1].cum_rounds);
  for (std::size_t i = 0; i < rounds.size(); ++i) EXPECT_EQ(rounds[i], i);
  EXPECT_TRUE(res.quarantined.empty());
}

TEST(Supervisor, AllPhasesExhaustedStillReturns) {
  const auto inst = small_instance(8, 5);
  billboard::ProbeOracle oracle(inst.matrix);
  auto strategies = solo_strategies(8);
  engine::Supervisor sup(oracle);
  const auto res = sup.run(strategies, {{"phase:0", 2}, {"phase:1", 2}});
  EXPECT_TRUE(res.degraded());
  EXPECT_EQ(res.unmet_phases.size(), 2u);
  ASSERT_EQ(res.phases.size(), 2u);
  EXPECT_FALSE(res.phases[1].result.all_done);
}

TEST(Supervisor, QuarantineMarksOrphanOnInjector) {
  const auto inst = small_instance(8, 6);
  billboard::ProbeOracle oracle(inst.matrix);
  faults::FaultInjector injector(faults::FaultPlan::parse("seed=9"), 8);
  oracle.set_fault_injector(&injector);
  auto strategies = solo_strategies(8);
  strategies[2] = std::make_unique<FlakyStrategy>(8, 1000);
  engine::Supervisor sup(oracle, {.max_strikes = 2, .backoff_base = 1, .backoff_cap = 2});
  const auto res = sup.run(strategies, {{"phase:0", 64}});
  ASSERT_EQ(res.quarantined.size(), 1u);
  EXPECT_EQ(res.quarantined[0], 2u);
  // Routed into the existing degradation machinery: orphaned (so
  // rescue_orphans re-adopts) and excluded from votes (is_failed).
  EXPECT_TRUE(injector.is_orphaned(2));
  EXPECT_TRUE(injector.is_failed(2));
  EXPECT_FALSE(injector.is_orphaned(3));
}

TEST(Supervisor, BackoffDelaysInnerCalls) {
  const auto inst = small_instance(8, 7);
  billboard::ProbeOracle oracle(inst.matrix);
  auto strategies = solo_strategies(8);
  auto flaky = std::make_unique<FlakyStrategy>(8, 1);
  auto* handle = flaky.get();
  strategies[0] = std::move(flaky);
  engine::Supervisor sup(oracle, {.max_strikes = 3, .backoff_base = 8, .backoff_cap = 64});
  const auto res = sup.run(strategies, {{"phase:0", 64}});
  EXPECT_FALSE(res.degraded());
  EXPECT_EQ(res.benched_rounds, 8u);  // exactly one backoff_base window
  // Throwing call + 8 solo rounds; the benched rounds never reached the
  // inner strategy.
  EXPECT_EQ(handle->calls(), 9u);
}

TEST(SchedulerResume, RoundClockIsMonotoneAcrossRuns) {
  const auto inst = small_instance(4, 8);
  billboard::ProbeOracle oracle(inst.matrix);
  std::ostringstream log;
  {
    obs::FlightRecorder recorder(log);
    oracle.set_recorder(&recorder);
    billboard::RoundScheduler sched(oracle);
    auto strategies = solo_strategies(4);
    const auto r1 = sched.run(strategies, 2);
    EXPECT_EQ(r1.rounds, 2u);
    const auto r2 = sched.run(strategies, 16);
    EXPECT_EQ(r2.rounds, 2u);  // 4 solo rounds total, 2 remained
    EXPECT_TRUE(r2.all_done);
    oracle.set_recorder(nullptr);
  }
  // The second run numbers its rounds on from the first's: 0, 1, then
  // 2, 3 (and the all-done probe round, touched but not counted).
  const auto rounds = logged_rounds(log.str());
  ASSERT_GE(rounds.size(), 4u);
  for (std::size_t i = 0; i < rounds.size(); ++i) EXPECT_EQ(rounds[i], i);
}

}  // namespace
}  // namespace tmwia
