// dist(x, y): the one-pair Hamming distance of Definition 1.1, kept as
// a first-class name because tests and audit paths lean on it as the
// reference. Collection aggregates (diameter, argmin, balls) live in
// the batched kernel layer, tmwia/bits/kernels.hpp.
#pragma once

#include <cstddef>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"

namespace tmwia::bits {

/// Plain Hamming distance. Forwards to the kernel layer so even
/// one-pair audit calls use the active backend.
inline std::size_t dist(const BitVector& a, const BitVector& b) {
  return kernels::dist(a, b);
}

}  // namespace tmwia::bits
