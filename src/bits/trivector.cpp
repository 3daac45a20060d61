#include "tmwia/bits/trivector.hpp"

#include <bit>
#include <stdexcept>

#include "tmwia/bits/kernels.hpp"

namespace tmwia::bits {

std::size_t TriVector::dtilde(const TriVector& other) const {
  if (size() != other.size()) {
    throw std::invalid_argument("TriVector::dtilde: size mismatch");
  }
  const auto va = value_.words();
  return static_cast<std::size_t>(kernels::xor_and2_popcount_words(
      va.data(), other.value_.words().data(), known_.words().data(),
      other.known_.words().data(), va.size()));
}

std::size_t TriVector::dtilde(const BitVector& other) const {
  if (size() != other.size()) {
    throw std::invalid_argument("TriVector::dtilde: size mismatch");
  }
  const auto va = value_.words();
  return static_cast<std::size_t>(kernels::xor_and_popcount_words(
      va.data(), other.words().data(), known_.words().data(), va.size()));
}

TriVector TriVector::merge(const TriVector& other) const {
  if (size() != other.size()) {
    throw std::invalid_argument("TriVector::merge: size mismatch");
  }
  TriVector out(size());
  // Known in the result iff known in both AND the values agree; where
  // the result is known its value equals either operand's value.
  BitVector differ = value_ ^ other.value_;     // 1 where value bits differ
  out.known_ = known_ & other.known_;
  out.known_ ^= differ & out.known_;            // drop both-known disagreements
  out.value_ = value_ & out.known_;
  return out;
}

BitVector TriVector::fill_unknown(bool fill) const {
  if (!fill) {
    return value_ & known_;
  }
  BitVector unknown = known_;
  // complement of known within the size: use XOR against all-ones
  BitVector ones(size(), true);
  unknown ^= ones;  // 1 where ?
  return (value_ & known_) | unknown;
}

int TriVector::lex_compare(const TriVector& other) const {
  const std::size_t n = std::min(size(), other.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<std::uint8_t>(get(i));
    const auto b = static_cast<std::uint8_t>(other.get(i));
    if (a != b) return a < b ? -1 : 1;
  }
  if (size() != other.size()) return size() < other.size() ? -1 : 1;
  return 0;
}

}  // namespace tmwia::bits
