// The hidden ground truth: an n x m binary preference matrix
// (Definition 1.1). Player code must never touch this type directly —
// it accesses entries only through billboard::ProbeOracle, which
// charges probe cost. Tests and benches use the direct accessors to
// audit outputs (discrepancy, stretch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/matrix/ids.hpp"

namespace tmwia::matrix {

/// n players x m objects, one packed BitVector row per player.
class PreferenceMatrix {
 public:
  PreferenceMatrix() = default;
  PreferenceMatrix(std::size_t players, std::size_t objects)
      : objects_(objects), rows_(players, bits::BitVector(objects)) {}

  /// Build from explicit rows; all rows must have equal size.
  explicit PreferenceMatrix(std::vector<bits::BitVector> rows);

  [[nodiscard]] std::size_t players() const { return rows_.size(); }
  [[nodiscard]] std::size_t objects() const { return objects_; }

  [[nodiscard]] bool value(PlayerId p, ObjectId o) const { return rows_[p].get(o); }
  void set_value(PlayerId p, ObjectId o, bool v) { rows_[p].set(o, v); }

  [[nodiscard]] const bits::BitVector& row(PlayerId p) const { return rows_[p]; }
  [[nodiscard]] bits::BitVector& row(PlayerId p) { return rows_[p]; }

  /// Hamming diameter of the players in `ids` (audit; O(|ids|^2)).
  [[nodiscard]] std::size_t subset_diameter(std::span<const PlayerId> ids) const;

  /// Discrepancy Delta = max_p dist(outputs[p], v(p)) over `ids`.
  [[nodiscard]] std::size_t discrepancy(std::span<const bits::BitVector> outputs,
                                        std::span<const PlayerId> ids) const;

  /// Stretch rho = Delta / D(ids); returns Delta when the diameter is 0
  /// and Delta > 0 would make the ratio infinite (the D=0 convention
  /// used in our experiments: stretch 0 iff exact).
  [[nodiscard]] double stretch(std::span<const bits::BitVector> outputs,
                               std::span<const PlayerId> ids) const;

 private:
  std::size_t objects_ = 0;
  std::vector<bits::BitVector> rows_;
};

}  // namespace tmwia::matrix
