#include "tmwia/billboard/strategies.hpp"

#include <numeric>

#include "tmwia/rng/partition.hpp"

namespace tmwia::billboard {

MimicStrategy::MimicStrategy(PlayerId self, std::size_t objects, std::size_t sample_budget,
                             std::size_t spot_checks, rng::Rng rng, std::size_t patience)
    : self_(self),
      sample_budget_(std::min(sample_budget, objects)),
      spot_checks_(spot_checks),
      rng_(rng),
      patience_(patience),
      own_probed_(objects),
      own_values_(objects),
      estimate_(objects) {
  sample_order_.resize(objects);
  std::iota(sample_order_.begin(), sample_order_.end(), 0u);
  rng::shuffle(sample_order_, rng_);
}

std::optional<ObjectId> MimicStrategy::next_probe(const RoundView& view) {
  // Phase 1: random sampling.
  if (sample_pos_ < sample_budget_) {
    return sample_order_[sample_pos_];
  }

  // Phase 2: adopt from the best-matching poster, spot-check disputed
  // coordinates, and keep refreshing the estimate as the billboard
  // fills up — the match's posts accumulate over rounds, so quitting at
  // the first adoption would freeze a half-covered estimate.
  adopt_from_best(view);
  std::optional<ObjectId> probe;
  if (best_match_.has_value() && checks_done_ < spot_checks_) {
    // Verify a random coordinate filled from the mimic source.
    for (std::size_t tries = 0; tries < 16 && !probe.has_value(); ++tries) {
      const auto o = static_cast<ObjectId>(rng_.uniform(estimate_.size()));
      if (!own_probed_.get(o) && view.is_posted(*best_match_, o)) {
        ++checks_done_;
        probe = o;
      }
    }
  }
  if (!probe.has_value()) {
    if (patience_ == 0) {
      done_ = true;
      return std::nullopt;
    }
    --patience_;
  }
  return probe;
}

void MimicStrategy::on_result(ObjectId o, bool value) {
  own_probed_.set(o, true);
  own_values_.set(o, value);
  estimate_.set(o, value);
  if (sample_pos_ < sample_budget_) ++sample_pos_;
}

void MimicStrategy::adopt_from_best(const RoundView& view) {
  // Score every other player by agreement on our probed coordinates.
  std::size_t best_agree = 0;
  std::optional<PlayerId> best;
  for (PlayerId q = 0; q < view.players(); ++q) {
    if (q == self_) continue;
    std::size_t agree = 0, overlap = 0;
    for (std::size_t i = 0; i < sample_pos_; ++i) {
      const ObjectId o = sample_order_[i];
      if (!view.is_posted(q, o)) continue;
      ++overlap;
      if (view.posted_value(q, o) == own_values_.get(o)) ++agree;
    }
    if (overlap >= 4 && agree * 2 > overlap && agree > best_agree) {
      best_agree = agree;
      best = q;
    }
  }
  best_match_ = best;

  // Rebuild the estimate: own probes win; the mimic source fills the
  // rest of what it posted.
  estimate_ = own_values_ & own_probed_;
  if (best.has_value()) {
    for (ObjectId o = 0; o < estimate_.size(); ++o) {
      if (!own_probed_.get(o) && view.is_posted(*best, o)) {
        estimate_.set(o, view.posted_value(*best, o));
      }
    }
  }
}

}  // namespace tmwia::billboard
