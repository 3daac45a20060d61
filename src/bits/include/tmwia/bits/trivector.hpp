// TriVector: a packed vector over {0, 1, ?}.
//
// The paper's Coalesce algorithm (Section 5.1) merges candidate vectors
// into vectors that may contain "don't care" (?) coordinates, and the
// distance measure d-tilde (Notation 3.2) counts disagreements only on
// coordinates where *both* vectors have non-? entries. TriVector stores
// two bit-planes: `known` (is the entry non-?) and `value` (the bit,
// meaningful only where known). d-tilde then reduces to
// popcount((a.value ^ b.value) & a.known & b.known).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "tmwia/bits/bitvector.hpp"

namespace tmwia::bits {

/// A coordinate value of a TriVector.
enum class Tri : std::uint8_t { kZero = 0, kOne = 1, kUnknown = 2 };

/// Fixed-length packed vector over {0,1,?} with value semantics.
class TriVector {
 public:
  TriVector() = default;

  /// Vector of `n` coordinates, all ?.
  explicit TriVector(std::size_t n) : value_(n), known_(n) {}

  /// Lift a fully-known BitVector into a TriVector (no ? entries).
  static TriVector from_bits(const BitVector& v) {
    TriVector t(v.size());
    t.value_ = v;
    t.known_ = BitVector(v.size(), true);
    return t;
  }

  [[nodiscard]] std::size_t size() const { return value_.size(); }

  [[nodiscard]] Tri get(std::size_t i) const {
    if (!known_.get(i)) return Tri::kUnknown;
    return value_.get(i) ? Tri::kOne : Tri::kZero;
  }

  void set(std::size_t i, Tri v) {
    if (v == Tri::kUnknown) {
      known_.set(i, false);
      value_.set(i, false);
    } else {
      known_.set(i, true);
      value_.set(i, v == Tri::kOne);
    }
  }

  /// Number of ? coordinates (Theorem 5.3 bounds this by 5D/alpha).
  [[nodiscard]] std::size_t unknown_count() const { return size() - known_.count_ones(); }

  /// d-tilde(a, b): disagreements over coordinates known in both
  /// (Notation 3.2).
  [[nodiscard]] std::size_t dtilde(const TriVector& other) const;

  /// d-tilde against a fully-known vector: disagreements over this
  /// vector's known coordinates.
  [[nodiscard]] std::size_t dtilde(const BitVector& other) const;

  /// Coalesce's merge (step 4a): coordinates where both operands are
  /// known and agree keep the common value; every other coordinate
  /// becomes ?. '?' is absorbing, which is what makes Lemma 5.1 hold
  /// transitively: a merged vector never *asserts* a value any of its
  /// merge-ancestors disagreed on.
  [[nodiscard]] TriVector merge(const TriVector& other) const;

  /// Materialize to a BitVector, filling ? coordinates with `fill`
  /// (the paper sets "don't care" entries to 0 at output time).
  [[nodiscard]] BitVector fill_unknown(bool fill = false) const;

  /// The two bit-planes (read-only).
  [[nodiscard]] const BitVector& value_plane() const { return value_; }
  [[nodiscard]] const BitVector& known_plane() const { return known_; }

  /// Packed word spans of the two planes, for the kernel layer. Both
  /// spans have the same length and zeroed tail bits (BitVector
  /// invariant), so masked popcounts need no tail handling.
  [[nodiscard]] std::span<const std::uint64_t> value_words() const {
    return value_.words();
  }
  [[nodiscard]] std::span<const std::uint64_t> known_words() const {
    return known_.words();
  }

  /// Lexicographic order with '0' < '1' < '?', coordinate 0 first.
  [[nodiscard]] int lex_compare(const TriVector& other) const;

  bool operator==(const TriVector& other) const = default;

 private:
  BitVector value_;  // bit meaningful only where known_
  BitVector known_;  // 1 = entry is 0/1, 0 = entry is ?
};

}  // namespace tmwia::bits
