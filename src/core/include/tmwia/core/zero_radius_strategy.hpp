// ZeroRadiusStrategy: Algorithm Zero Radius (Fig. 2) as a *genuinely
// distributed* per-player state machine under the synchronous
// RoundScheduler — each player follows its own root-to-leaf path of the
// shared recursion tree, probes its own leaf, publishes its vectors on
// the billboard, awaits its sibling half's posts, and adopts by vote +
// Select with bound 0, exactly as the paper describes a player
// executing the algorithm.
//
// The tree is the ZeroRadiusPlan of zero_radius.hpp: the public coins,
// derived once and shared by every player of a run and by the
// centralized engine (the fast simulation), which also share the vote
// quorum and the Select-0 winner rule. The test suite checks the two
// produce BIT-IDENTICAL outputs and probe counts from the same seed —
// the simulation-faithfulness argument for every experiment built on
// the centralized path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::core {

class ZeroRadiusStrategy final : public billboard::PlayerStrategy {
 public:
  /// `self` must be among the plan's root players. `plan` is the shared
  /// recursion tree, one for every player of the execution (and for the
  /// centralized run being compared against). `channel_prefix`
  /// namespaces the billboard channels of this execution.
  ZeroRadiusStrategy(PlayerId self, std::shared_ptr<const ZeroRadiusPlan> plan, double alpha,
                     const Params& params, std::string channel_prefix = "dzr");

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override;
  void on_result(billboard::ObjectId o, bool value) override;
  std::vector<billboard::PendingPost> posts() override;
  [[nodiscard]] bool done() const override { return state_ == State::kDone; }

  /// The player's output for the full object list (valid once done()).
  [[nodiscard]] bits::BitVector output() const;

 private:
  using Node = ZeroRadiusPlan::Node;

  /// One internal node on the player's path, and the child (not
  /// containing the player) whose posts it adopts.
  struct Frame {
    const Node* node;
    const Node* sibling;
    std::string sibling_channel;
    std::size_t min_votes;
  };

  enum class State : std::uint8_t { kLeafProbe, kAwait, kSelect, kDone };

  [[nodiscard]] std::string channel(std::uint64_t tag) const {
    return prefix_ + "/" + std::to_string(tag);
  }
  void finish_leaf();

  std::shared_ptr<const ZeroRadiusPlan> plan_;
  std::string prefix_;
  const Node* leaf_ = nullptr;
  std::vector<Frame> frames_;  // the path's internal nodes, deepest first

  // Accumulated estimate over the global object space.
  bits::BitVector values_;

  State state_ = State::kLeafProbe;
  std::size_t leaf_pos_ = 0;
  std::size_t level_ = 0;  // index into frames_
  const Node* pending_post_ = nullptr;

  // Select-with-bound-0 working state for the current level.
  std::vector<bits::BitVector> candidates_;  // over the sibling's object order
  std::vector<bool> alive_;
  std::vector<std::size_t> mismatches_;
  std::size_t select_cursor_ = 0;
  std::optional<std::size_t> probing_candidate_coord_;
};

/// Convenience driver: run the distributed Zero Radius for all players
/// of the oracle under a RoundScheduler; returns per-player outputs and
/// the schedule stats.
struct DistributedZeroRadiusResult {
  std::vector<bits::BitVector> outputs;
  billboard::ScheduleResult schedule;
};

DistributedZeroRadiusResult zero_radius_distributed(billboard::ProbeOracle& oracle,
                                                    double alpha, const Params& params,
                                                    const rng::Rng& shared_rng,
                                                    std::size_t max_rounds = 0);

}  // namespace tmwia::core
