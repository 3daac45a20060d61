// Tests for the Section 6 budget-to-alpha machinery: monotonicity of
// the cost model, the budget search, and (the contract that matters)
// the estimate genuinely upper-bounding the measured cost of the
// implementation it models. Plus the distributed Byzantine wrapper.
#include <gtest/gtest.h>

#include <numeric>

#include "tmwia/core/budget.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/zero_radius_strategy.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::core {
namespace {

TEST(Budget, CostsIncreaseAsAlphaShrinks) {
  const auto params = Params::practical();
  for (std::size_t n : {256, 1024}) {
    double prev = 0.0;
    for (double alpha : {1.0, 0.5, 0.25, 0.125}) {
      const double c = estimated_unknown_d_rounds(alpha, n, n, params);
      EXPECT_GE(c, prev) << "alpha " << alpha;
      prev = c;
    }
  }
}

TEST(Budget, ComponentsArePositiveAndOrdered) {
  const auto params = Params::practical();
  const double zr = estimated_zero_radius_rounds(0.5, 512, 512, params);
  const double sr = estimated_small_radius_rounds(0.5, 4, 512, 512, params);
  EXPECT_GT(zr, 0.0);
  // Small Radius repeats Zero Radius K*s times; it must dominate.
  EXPECT_GT(sr, zr);
}

TEST(Budget, SmallestAlphaForBudgetBasics) {
  const auto params = Params::practical();
  const std::size_t n = 512;
  // A giant budget admits the smallest representable alpha (1/n) —
  // note the model is deliberately pessimistic (costs ~ 1/alpha^2), so
  // "giant" really means giant.
  const auto huge = smallest_alpha_for_budget(1ull << 44, n, n, params);
  ASSERT_TRUE(huge.has_value());
  EXPECT_LE(*huge, 2.0 / static_cast<double>(n));
  // A zero budget admits nothing.
  EXPECT_FALSE(smallest_alpha_for_budget(0, n, n, params).has_value());
}

TEST(Budget, ReturnedAlphaRespectsBudget) {
  const auto params = Params::practical();
  const std::size_t n = 512;
  for (std::uint64_t budget : {5000u, 20000u, 100000u}) {
    const auto alpha = smallest_alpha_for_budget(budget, n, n, params);
    if (!alpha.has_value()) continue;
    EXPECT_LE(estimated_unknown_d_rounds(*alpha, n, n, params),
              static_cast<double>(budget));
    // And halving once more would blow it (it is the smallest).
    if (*alpha / 2.0 * static_cast<double>(n) >= 1.0) {
      EXPECT_GT(estimated_unknown_d_rounds(*alpha / 2.0, n, n, params),
                static_cast<double>(budget));
    }
  }
}

TEST(Budget, EstimateUpperBoundsMeasuredCost) {
  // The whole point of the over-counting model: a run with the chosen
  // alpha must not exceed the estimate.
  const std::size_t n = 256;
  const double alpha = 0.5;
  const auto params = Params::practical();
  rng::Rng gen(1);
  auto inst = matrix::planted_community(n, n, {alpha, 2}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = find_preferences_unknown_d(oracle, nullptr, alpha, params, rng::Rng(2));
  EXPECT_LE(static_cast<double>(res.rounds),
            estimated_unknown_d_rounds(alpha, n, n, params));
}

// --- the distributed Byzantine wrapper -----------------------------------

/// Runs the inner ZeroRadiusStrategy honestly (probes, awaits, adopts)
/// but swaps every billboard post for a forged vector: a coalition of
/// liars pushing one fake candidate at the protocol level (bench e14
/// forges inside the centralized run, through BitSpace::set_byzantine).
/// Honest peers defend themselves with Select's probing.
class ForgingZeroRadiusStrategy final : public billboard::PlayerStrategy {
 public:
  ForgingZeroRadiusStrategy(ZeroRadiusStrategy inner, bits::BitVector forged)
      : inner_(std::move(inner)), forged_(std::move(forged)) {}

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override {
    return inner_.next_probe(view);
  }
  void on_result(billboard::ObjectId o, bool value) override { inner_.on_result(o, value); }
  std::vector<billboard::PendingPost> posts() override {
    auto out = inner_.posts();
    for (auto& post : out) {
      // Same channel, same length, forged content: the lie must still
      // look like a vector over the node's object set to count as a
      // vote there. The coalition posts identical vectors, which is all
      // that matters for crossing the popularity threshold.
      bits::BitVector lie(post.vec.size());
      for (std::size_t j = 0; j < post.vec.size(); ++j) {
        lie.set(j, forged_.get(j % forged_.size()));
      }
      post.vec = std::move(lie);
    }
    return out;
  }
  [[nodiscard]] bool done() const override { return inner_.done(); }

 private:
  ZeroRadiusStrategy inner_;
  bits::BitVector forged_;
};

TEST(ForgingStrategy, HonestPeersSurviveProtocolLevelForgery) {
  const std::size_t n = 128;
  const double alpha = 0.5;
  rng::Rng gen(3);
  auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);
  const rng::Rng coins(4);
  const auto params = Params::practical();

  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(n);
  std::iota(objects.begin(), objects.end(), 0u);

  // A fifth of the outsiders run the forging wrapper.
  const auto outsiders = inst.outsiders();
  std::vector<bool> is_liar(n, false);
  for (std::size_t i = 0; i < outsiders.size() / 3; ++i) is_liar[outsiders[i]] = true;
  const bits::BitVector forged = inst.centers[0] ^ bits::BitVector(n, true);

  const auto plan = std::make_shared<const ZeroRadiusPlan>(
      players, objects, zero_radius_leaf_threshold(n, alpha, params), coins);
  billboard::ProbeOracle oracle(inst.matrix);
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  std::vector<ZeroRadiusStrategy*> honest(n, nullptr);
  for (PlayerId p = 0; p < n; ++p) {
    ZeroRadiusStrategy inner(p, plan, alpha, params);
    if (is_liar[p]) {
      strategies.push_back(
          std::make_unique<ForgingZeroRadiusStrategy>(std::move(inner), forged));
    } else {
      auto s = std::make_unique<ZeroRadiusStrategy>(std::move(inner));
      honest[p] = s.get();
      strategies.push_back(std::move(s));
    }
  }

  billboard::RoundScheduler sched(oracle);
  const auto res = sched.run(strategies, 16 * n);
  ASSERT_TRUE(res.all_done);

  for (auto p : inst.communities[0]) {
    ASSERT_NE(honest[p], nullptr);
    EXPECT_EQ(honest[p]->output(), inst.centers[0]) << "player " << p;
  }
}

}  // namespace
}  // namespace tmwia::core
