// SoloStrategy: the "go it alone" PlayerStrategy the scheduler tests
// drive — probe objects 0..m-1 in order, one a round, so estimate() is
// exact after m rounds.
#pragma once

#include <optional>

#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/bits/bitvector.hpp"

namespace tmwia::billboard {

class SoloStrategy final : public PlayerStrategy {
 public:
  explicit SoloStrategy(std::size_t objects) : estimate_(objects) {}

  std::optional<ObjectId> next_probe(const RoundView& /*view*/) override {
    if (next_ >= estimate_.size()) return std::nullopt;
    return static_cast<ObjectId>(next_);
  }
  void on_result(ObjectId o, bool value) override {
    estimate_.set(o, value);
    ++next_;
  }
  [[nodiscard]] bool done() const override { return next_ >= estimate_.size(); }

  [[nodiscard]] const bits::BitVector& estimate() const { return estimate_; }

 private:
  bits::BitVector estimate_;
  std::size_t next_ = 0;
};

}  // namespace tmwia::billboard
