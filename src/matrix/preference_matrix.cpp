#include "tmwia/matrix/preference_matrix.hpp"

#include <stdexcept>

namespace tmwia::matrix {

PreferenceMatrix::PreferenceMatrix(std::vector<bits::BitVector> rows) : rows_(std::move(rows)) {
  if (!rows_.empty()) {
    objects_ = rows_[0].size();
    for (const auto& r : rows_) {
      if (r.size() != objects_) {
        throw std::invalid_argument("PreferenceMatrix: ragged rows");
      }
    }
  }
}

std::size_t PreferenceMatrix::subset_diameter(std::span<const PlayerId> ids) const {
  std::size_t d = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      d = std::max(d, rows_[ids[i]].hamming(rows_[ids[j]]));
    }
  }
  return d;
}

std::size_t PreferenceMatrix::discrepancy(std::span<const bits::BitVector> outputs,
                                          std::span<const PlayerId> ids) const {
  std::size_t d = 0;
  for (PlayerId p : ids) {
    d = std::max(d, outputs[p].hamming(rows_[p]));
  }
  return d;
}

double PreferenceMatrix::stretch(std::span<const bits::BitVector> outputs,
                                 std::span<const PlayerId> ids) const {
  const std::size_t delta = discrepancy(outputs, ids);
  const std::size_t diam = subset_diameter(ids);
  if (diam == 0) return static_cast<double>(delta);
  return static_cast<double>(delta) / static_cast<double>(diam);
}

}  // namespace tmwia::matrix
