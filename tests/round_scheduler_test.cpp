// Tests for the synchronous RoundScheduler and the reference
// strategies — the executable form of the paper's "in each round, each
// player reads the billboard, probes one object, and writes the result"
// model.
#include <gtest/gtest.h>

#include <memory>

#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/billboard/strategies.hpp"
#include "tmwia/matrix/generators.hpp"
#include "solo_strategy.hpp"

namespace tmwia::billboard {
namespace {

TEST(RoundScheduler, RejectsWrongStrategyCount) {
  matrix::PreferenceMatrix mat(3, 4);
  ProbeOracle oracle(mat);
  RoundScheduler sched(oracle);
  std::vector<std::unique_ptr<PlayerStrategy>> strategies(2);
  EXPECT_THROW(sched.run(strategies, 10), std::invalid_argument);
}

TEST(RoundScheduler, SoloStrategiesFinishInExactlyMRounds) {
  rng::Rng rng(1);
  auto inst = matrix::uniform_random(8, 32, rng);
  ProbeOracle oracle(inst.matrix);
  RoundScheduler sched(oracle);

  std::vector<std::unique_ptr<PlayerStrategy>> strategies;
  std::vector<SoloStrategy*> solos;
  for (int p = 0; p < 8; ++p) {
    auto s = std::make_unique<SoloStrategy>(32);
    solos.push_back(s.get());
    strategies.push_back(std::move(s));
  }
  const auto res = sched.run(strategies, 1000);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(res.rounds, 32u);
  EXPECT_EQ(oracle.max_invocations(), 32u);  // 1 probe/round, lockstep
  for (matrix::PlayerId p = 0; p < 8; ++p) {
    EXPECT_EQ(solos[p]->estimate(), inst.matrix.row(p));
  }
}

TEST(RoundScheduler, OneProbePerPlayerPerRound) {
  rng::Rng rng(2);
  auto inst = matrix::uniform_random(4, 16, rng);
  ProbeOracle oracle(inst.matrix);
  RoundScheduler sched(oracle);

  std::vector<std::unique_ptr<PlayerStrategy>> strategies;
  for (int p = 0; p < 4; ++p) strategies.push_back(std::make_unique<SoloStrategy>(16));
  const auto res = sched.run(strategies, 7);  // stop early
  EXPECT_EQ(res.rounds, 7u);
  EXPECT_FALSE(res.all_done);
  for (matrix::PlayerId p = 0; p < 4; ++p) {
    EXPECT_EQ(oracle.invocations(p), 7u);
  }
}

TEST(RoundScheduler, NullStrategiesIdle) {
  rng::Rng rng(3);
  auto inst = matrix::uniform_random(3, 8, rng);
  ProbeOracle oracle(inst.matrix);
  RoundScheduler sched(oracle);

  std::vector<std::unique_ptr<PlayerStrategy>> strategies(3);
  strategies[1] = std::make_unique<SoloStrategy>(8);
  const auto res = sched.run(strategies, 100);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(oracle.invocations(0), 0u);
  EXPECT_EQ(oracle.invocations(1), 8u);
  EXPECT_EQ(oracle.invocations(2), 0u);
}

// A strategy that records whether it ever saw a same-round post — the
// lockstep-visibility invariant (reads expose only earlier rounds).
class SpyStrategy final : public PlayerStrategy {
 public:
  SpyStrategy(PlayerId peer, std::size_t objects) : peer_(peer), objects_(objects) {}

  std::optional<ObjectId> next_probe(const RoundView& view) override {
    // The peer probes object r in round r (SoloStrategy order); its
    // post must only be visible from round r+1 on.
    if (view.round() > 0 && view.is_posted(peer_, static_cast<ObjectId>(view.round() - 1))) {
      saw_previous_round_ = true;
    }
    if (view.is_posted(peer_, static_cast<ObjectId>(view.round()))) {
      saw_same_round_ = true;  // must never happen
    }
    if (next_ >= objects_) return std::nullopt;
    return static_cast<ObjectId>(next_);
  }
  void on_result(ObjectId, bool) override { ++next_; }
  [[nodiscard]] bool done() const override { return next_ >= objects_; }

  bool saw_same_round_ = false;
  bool saw_previous_round_ = false;

 private:
  PlayerId peer_;
  std::size_t objects_;
  std::size_t next_ = 0;
};

TEST(RoundScheduler, InRoundPostsInvisibleUntilNextRound) {
  rng::Rng rng(4);
  auto inst = matrix::uniform_random(2, 16, rng);
  ProbeOracle oracle(inst.matrix);
  RoundScheduler sched(oracle);

  std::vector<std::unique_ptr<PlayerStrategy>> strategies;
  auto spy = std::make_unique<SpyStrategy>(/*peer=*/1, 16);
  auto* spy_ptr = spy.get();
  strategies.push_back(std::move(spy));
  strategies.push_back(std::make_unique<SoloStrategy>(16));

  (void)sched.run(strategies, 100);
  EXPECT_FALSE(spy_ptr->saw_same_round_);
  EXPECT_TRUE(spy_ptr->saw_previous_round_);
}

TEST(Mimic, CopiesCommunityMemberAndGetsItRight) {
  // One exact community covering everyone: a mimic with a small budget
  // reconstructs nearly the whole row from a solo player's posts.
  const std::size_t n = 8;
  const std::size_t m = 128;
  rng::Rng rng(5);
  auto inst = matrix::planted_community(n, m, {1.0, 0}, rng);
  ProbeOracle oracle(inst.matrix);
  RoundScheduler sched(oracle);

  std::vector<std::unique_ptr<PlayerStrategy>> strategies;
  auto mimic = std::make_unique<MimicStrategy>(0, m, /*sample=*/16, /*checks=*/8,
                                               rng::Rng(6), /*patience=*/m + 16);
  auto* mimic_ptr = mimic.get();
  strategies.push_back(std::move(mimic));
  for (std::size_t p = 1; p < n; ++p) {
    strategies.push_back(std::make_unique<SoloStrategy>(m));
  }
  const auto res = sched.run(strategies, 3 * m);
  EXPECT_TRUE(res.all_done);
  // Mimic used far fewer probes than solo while matching the row, so
  // it adopted a poster's values.
  EXPECT_LE(oracle.invocations(0), 16u + 8u);
  EXPECT_LE(mimic_ptr->estimate().hamming(inst.matrix.row(0)), 8u);
}

TEST(Mimic, LonerFallsBackToOwnProbes) {
  // No community: the mimic should not adopt anyone (agreement stays
  // near 50%) and its estimate equals its own probes.
  const std::size_t n = 4;
  const std::size_t m = 256;
  rng::Rng rng(7);
  auto inst = matrix::uniform_random(n, m, rng);
  ProbeOracle oracle(inst.matrix);
  RoundScheduler sched(oracle);

  std::vector<std::unique_ptr<PlayerStrategy>> strategies;
  auto mimic = std::make_unique<MimicStrategy>(0, m, 32, 8, rng::Rng(8));
  auto* mimic_ptr = mimic.get();
  strategies.push_back(std::move(mimic));
  for (std::size_t p = 1; p < n; ++p) {
    strategies.push_back(std::make_unique<SoloStrategy>(m));
  }
  (void)sched.run(strategies, 2 * m);
  // Adoption may trigger on a lucky coin-match, but the estimate on the
  // probed set must be exact regardless.
  std::size_t err_on_probed = 0;
  for (ObjectId o = 0; o < m; ++o) {
    if (oracle.probed_mask(0).get(o) &&
        mimic_ptr->estimate().get(o) != inst.matrix.value(0, o)) {
      ++err_on_probed;
    }
  }
  EXPECT_EQ(err_on_probed, 0u);
}

/// Misbehaves on demand: throws out of next_probe (or on_result) at a
/// chosen round to exercise the scheduler's strategy isolation.
class ThrowingStrategy final : public PlayerStrategy {
 public:
  ThrowingStrategy(std::size_t objects, std::size_t throw_round, bool from_on_result)
      : estimate_(objects), throw_round_(throw_round), from_on_result_(from_on_result) {}

  std::optional<ObjectId> next_probe(const RoundView& view) override {
    if (!from_on_result_ && view.round() == throw_round_) {
      throw std::runtime_error("strategy bug: next_probe");
    }
    return static_cast<ObjectId>(next_);
  }
  void on_result(ObjectId o, bool value) override {
    if (from_on_result_ && next_ == throw_round_) {
      throw std::runtime_error("strategy bug: on_result");
    }
    estimate_.set(o, value);
    ++next_;
  }
  [[nodiscard]] bool done() const override { return next_ >= estimate_.size(); }

 private:
  bits::BitVector estimate_;
  std::size_t throw_round_;
  bool from_on_result_;
  std::size_t next_ = 0;
};

TEST(RoundScheduler, ThrowingStrategyIsIsolated) {
  for (const bool from_on_result : {false, true}) {
    rng::Rng rng(11);
    auto inst = matrix::uniform_random(4, 16, rng);
    ProbeOracle oracle(inst.matrix);
    RoundScheduler sched(oracle);

    std::vector<std::unique_ptr<PlayerStrategy>> strategies;
    std::vector<SoloStrategy*> solos;
    strategies.push_back(std::make_unique<ThrowingStrategy>(16, 3, from_on_result));
    for (int p = 1; p < 4; ++p) {
      auto s = std::make_unique<SoloStrategy>(16);
      solos.push_back(s.get());
      strategies.push_back(std::move(s));
    }

    const auto res = sched.run(strategies, 1000);

    // The buggy player is marked failed and the run is not all-done...
    EXPECT_EQ(res.failed_strategies, std::vector<PlayerId>{0});
    EXPECT_FALSE(res.all_done);
    // ...but everyone else finished their full 16 probes, unharmed.
    EXPECT_EQ(res.rounds, 16u);
    for (auto* s : solos) {
      EXPECT_TRUE(s->done());
    }
    for (PlayerId p = 1; p < 4; ++p) {
      EXPECT_EQ(oracle.invocations(p), 16u);
    }
    // The thrower stopped being driven after the bad round.
    EXPECT_LE(oracle.invocations(0), 4u);
  }
}

}  // namespace
}  // namespace tmwia::billboard
