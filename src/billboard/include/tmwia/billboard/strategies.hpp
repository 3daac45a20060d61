// MimicStrategy, a reference PlayerStrategy for the RoundScheduler: a
// billboard-native collaborative heuristic. Spend a sampling budget on
// random probes, then each round look for the poster whose posted
// values agree best with one's own sample and fill unprobed coordinates
// from their posts, spot-checking one disputed coordinate per round. A
// scheduler-level cousin of the "collaborate with strangers" idea of
// [3]. It is deliberately simple: it drives `run --algo=mimic` and
// serve's mimic tenants, not a replacement for the core algorithms.
#pragma once

#include <optional>
#include <vector>

#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/bits/bitvector.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::billboard {

/// Random sampling + best-matching-poster adoption with spot checks.
class MimicStrategy final : public PlayerStrategy {
 public:
  /// `self` is this player's id (to skip its own posts); the sampling
  /// budget is the number of random probes before mimicking starts;
  /// `spot_checks` bounds the verification probes afterwards;
  /// `patience` is how many rounds to idle waiting for enough billboard
  /// overlap before giving up on finding a match (0: one shot).
  MimicStrategy(PlayerId self, std::size_t objects, std::size_t sample_budget,
                std::size_t spot_checks, rng::Rng rng, std::size_t patience = 0);

  std::optional<ObjectId> next_probe(const RoundView& view) override;
  void on_result(ObjectId o, bool value) override;
  [[nodiscard]] bool done() const override { return done_; }

  /// Current estimate: own probes where available, the best-matching
  /// poster's values elsewhere (0 where nobody posted).
  [[nodiscard]] const bits::BitVector& estimate() const { return estimate_; }

 private:
  void adopt_from_best(const RoundView& view);

  PlayerId self_;
  std::size_t sample_budget_;
  std::size_t spot_checks_;
  rng::Rng rng_;

  std::vector<ObjectId> sample_order_;
  std::size_t sample_pos_ = 0;
  std::size_t checks_done_ = 0;
  std::size_t patience_ = 0;

  bits::BitVector own_probed_;
  bits::BitVector own_values_;
  bits::BitVector estimate_;
  std::optional<PlayerId> best_match_;
  bool done_ = false;
};

}  // namespace tmwia::billboard
