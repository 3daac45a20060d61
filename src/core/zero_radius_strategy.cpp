#include "tmwia/core/zero_radius_strategy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace tmwia::core {

ZeroRadiusStrategy::ZeroRadiusStrategy(PlayerId self, std::shared_ptr<const ZeroRadiusPlan> plan,
                                       double alpha, const Params& params,
                                       std::string channel_prefix)
    : plan_(std::move(plan)), prefix_(std::move(channel_prefix)) {
  const Node* node = &plan_->root();
  const auto it = std::find(node->players.begin(), node->players.end(), self);
  if (it == node->players.end()) {
    throw std::invalid_argument("ZeroRadiusStrategy: self not among players");
  }
  auto pos = static_cast<std::uint32_t>(it - node->players.begin());

  // Pre-size the global estimate: object ids address the oracle's
  // space, so size it to the max id + 1.
  std::uint32_t max_obj = 0;
  for (auto o : node->objects) max_obj = std::max(max_obj, o);
  values_ = bits::BitVector(max_obj + 1);

  // Walk down the shared recursion tree, keeping the half containing
  // self at every node (Fig. 2: "Let P' be the half that contains p").
  // `pos` is self's position in the node's player list.
  while (!node->leaf()) {
    const auto& first = node->player_pos[0];
    const std::size_t half = std::binary_search(first.begin(), first.end(), pos) ? 0 : 1;
    const auto& own = node->player_pos[half];
    pos = static_cast<std::uint32_t>(std::lower_bound(own.begin(), own.end(), pos) - own.begin());
    const Node& sibling = plan_->child(*node, 1 - half);
    frames_.push_back(Frame{node, &sibling, channel(sibling.tag),
                            zero_radius_min_votes(sibling.players.size(), alpha, params)});
    node = &plan_->child(*node, half);
  }
  leaf_ = node;

  // Process deepest node first on the way back up.
  std::reverse(frames_.begin(), frames_.end());
}

void ZeroRadiusStrategy::finish_leaf() {
  pending_post_ = leaf_;
  state_ = frames_.empty() ? State::kDone : State::kAwait;
}

std::optional<billboard::ObjectId> ZeroRadiusStrategy::next_probe(
    const billboard::RoundView& view) {
  switch (state_) {
    case State::kLeafProbe:
      if (leaf_pos_ < leaf_->objects.size()) {
        return leaf_->objects[leaf_pos_];
      }
      // Leaf complete (empty-leaf corner case): fall through to posting.
      finish_leaf();
      return std::nullopt;

    case State::kAwait: {
      const Frame& f = frames_[level_];
      if (view.board().posters(f.sibling_channel) < f.sibling->players.size()) {
        return std::nullopt;  // sibling half still working
      }
      // All sibling posts in: tally and set up Select with bound 0.
      const auto voted =
          view.board().popular(f.sibling_channel, static_cast<std::uint32_t>(f.min_votes));
      candidates_.clear();
      for (const auto& vv : voted) candidates_.push_back(vv.vec);
      alive_.assign(candidates_.size(), true);
      mismatches_.assign(candidates_.size(), 0);
      select_cursor_ = 0;
      state_ = State::kSelect;
      [[fallthrough]];
    }

    case State::kSelect: {
      const Frame& f = frames_[level_];
      const auto& sibling_objects = f.sibling->objects;
      std::size_t alive_count = 0;
      for (bool a : alive_) alive_count += a ? 1 : 0;

      if (candidates_.size() > 1 && alive_count > 1) {
        // Next coordinate where two alive candidates disagree.
        for (; select_cursor_ < sibling_objects.size(); ++select_cursor_) {
          bool saw0 = false, saw1 = false;
          for (std::size_t i = 0; i < candidates_.size(); ++i) {
            if (!alive_[i]) continue;
            (candidates_[i].get(select_cursor_) ? saw1 : saw0) = true;
          }
          if (saw0 && saw1) {
            probing_candidate_coord_ = select_cursor_;
            return sibling_objects[select_cursor_];
          }
        }
      }

      // Selection finished for this level: adopt the winner.
      if (!candidates_.empty()) {
        values_.scatter(candidates_[detail::select_zero_winner(candidates_, alive_, mismatches_)],
                        sibling_objects);
      }

      // Publish the completed node vector for the parent level's
      // sibling players (the root's vector needs no audience).
      if (level_ + 1 < frames_.size()) pending_post_ = f.node;
      ++level_;
      state_ = level_ < frames_.size() ? State::kAwait : State::kDone;
      return std::nullopt;
    }

    case State::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

void ZeroRadiusStrategy::on_result(billboard::ObjectId o, bool value) {
  if (state_ == State::kLeafProbe) {
    values_.set(o, value);
    if (++leaf_pos_ == leaf_->objects.size()) finish_leaf();
    return;
  }
  if (state_ == State::kSelect && probing_candidate_coord_.has_value()) {
    const std::size_t j = *probing_candidate_coord_;
    probing_candidate_coord_.reset();
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (alive_[i] && candidates_[i].get(j) != value) {
        ++mismatches_[i];
        alive_[i] = false;
      }
    }
    ++select_cursor_;  // this coordinate is settled
    return;
  }
  throw std::logic_error("ZeroRadiusStrategy::on_result: unexpected result");
}

std::vector<billboard::PendingPost> ZeroRadiusStrategy::posts() {
  if (pending_post_ == nullptr) return {};
  const Node* node = std::exchange(pending_post_, nullptr);
  return {billboard::PendingPost{channel(node->tag), values_.project(node->objects)}};
}

bits::BitVector ZeroRadiusStrategy::output() const {
  return values_.project(plan_->root().objects);
}

DistributedZeroRadiusResult zero_radius_distributed(billboard::ProbeOracle& oracle,
                                                    double alpha, const Params& params,
                                                    const rng::Rng& shared_rng,
                                                    std::size_t max_rounds) {
  const std::size_t n = oracle.players();
  const std::size_t m = oracle.objects();
  if (max_rounds == 0) max_rounds = 8 * (n + m) + 64;

  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(m);
  std::iota(objects.begin(), objects.end(), 0u);
  const auto plan = std::make_shared<const ZeroRadiusPlan>(
      std::move(players), std::move(objects), zero_radius_leaf_threshold(n, alpha, params),
      shared_rng);

  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  std::vector<ZeroRadiusStrategy*> raw;
  strategies.reserve(n);
  for (PlayerId p = 0; p < n; ++p) {
    auto s = std::make_unique<ZeroRadiusStrategy>(p, plan, alpha, params);
    raw.push_back(s.get());
    strategies.push_back(std::move(s));
  }

  billboard::RoundScheduler sched(oracle);
  DistributedZeroRadiusResult res;
  res.schedule = sched.run(strategies, max_rounds);
  res.outputs.reserve(n);
  for (auto* s : raw) res.outputs.push_back(s->output());
  return res;
}

}  // namespace tmwia::core
