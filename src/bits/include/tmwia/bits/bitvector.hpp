// BitVector: a packed, fixed-length vector over {0,1}.
//
// This is the fundamental value type of the library: every preference
// vector v(p) in the paper is a BitVector, and Hamming distance between
// BitVectors is the paper's dist(.,.) (Definition 1.1). Storage is one
// bit per coordinate in 64-bit words, so distance computations reduce to
// XOR + popcount over words.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tmwia::bits {

/// Fixed-length packed bit vector with value semantics.
///
/// Coordinates are indexed 0..size()-1. Unused high bits of the last
/// word are kept zero as a class invariant, which lets popcount-based
/// operations run over whole words without masking.
///
/// Storage is small-buffer optimized: vectors of up to 128 coordinates
/// (2 words) live inline with no heap allocation. The recursion leaves
/// of Zero Radius produce millions of sub-128-bit rows per run, and the
/// allocator round-trips dominated their cost before the inline buffer.
class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  /// Empty vector (size 0).
  BitVector() = default;

  /// Vector of `n` coordinates, all zero.
  explicit BitVector(std::size_t n) : size_(n), nwords_(word_count(n)) {
    if (nwords_ > kInlineWords) data_ = new Word[nwords_]();
  }

  /// Vector of `n` coordinates, all set to `fill`.
  BitVector(std::size_t n, bool fill) : BitVector(n) {
    if (fill) {
      for (std::size_t i = 0; i < nwords_; ++i) data_[i] = ~Word{0};
      clear_tail();
    }
  }

  BitVector(const BitVector& other) : size_(other.size_), nwords_(other.nwords_) {
    if (nwords_ > kInlineWords) data_ = new Word[nwords_];
    std::copy_n(other.data_, nwords_, data_);
  }

  BitVector(BitVector&& other) noexcept : size_(other.size_), nwords_(other.nwords_) {
    if (other.on_heap()) {
      data_ = other.data_;
      other.data_ = other.inline_;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
    other.size_ = 0;
    other.nwords_ = 0;
  }

  BitVector& operator=(const BitVector& other) {
    if (this == &other) return *this;
    if (nwords_ != other.nwords_) {
      Word* fresh = other.nwords_ > kInlineWords ? new Word[other.nwords_] : inline_;
      if (on_heap()) delete[] data_;
      data_ = fresh;
    }
    size_ = other.size_;
    nwords_ = other.nwords_;
    std::copy_n(other.data_, nwords_, data_);
    return *this;
  }

  BitVector& operator=(BitVector&& other) noexcept {
    if (this == &other) return *this;
    if (on_heap()) delete[] data_;
    size_ = other.size_;
    nwords_ = other.nwords_;
    if (other.on_heap()) {
      data_ = other.data_;
      other.data_ = other.inline_;
    } else {
      data_ = inline_;
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
    other.size_ = 0;
    other.nwords_ = 0;
    return *this;
  }

  ~BitVector() {
    if (on_heap()) delete[] data_;
  }

  /// Parse from a string of '0'/'1' characters; index 0 is the first char.
  static BitVector from_string(const std::string& s);

  /// Render as a string of '0'/'1' characters.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool get(std::size_t i) const {
    return (data_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i, bool v) {
    const Word mask = Word{1} << (i % kWordBits);
    if (v) {
      data_[i / kWordBits] |= mask;
    } else {
      data_[i / kWordBits] &= ~mask;
    }
  }

  void flip(std::size_t i) { data_[i / kWordBits] ^= Word{1} << (i % kWordBits); }

  /// Number of 1-coordinates.
  [[nodiscard]] std::size_t count_ones() const;

  /// Hamming distance to `other`. Requires equal sizes.
  [[nodiscard]] std::size_t hamming(const BitVector& other) const;

  /// Hamming distance restricted to the coordinate subset `coords`
  /// (dist|_S in Notation 4.1). Coordinates must be < size().
  [[nodiscard]] std::size_t hamming_on(const BitVector& other,
                                       std::span<const std::uint32_t> coords) const;

  /// Projection v|_S : the |S|-coordinate vector whose i-th entry is
  /// this->get(coords[i]) (Notation 4.1).
  [[nodiscard]] BitVector project(std::span<const std::uint32_t> coords) const;

  /// Inverse of project: write the entries of `piece` back into `*this`
  /// at positions `coords`. Used to stitch per-part outputs (Small
  /// Radius step 1c, Large Radius step 4).
  void scatter(const BitVector& piece, std::span<const std::uint32_t> coords);

  /// scatter() with the positions given as a set: bit i of `piece`
  /// lands at the i-th 1-position of `mask` (mask.size() == size(),
  /// piece.size() == mask.count_ones()). One word-parallel deposit per
  /// destination word instead of a read-modify-write per coordinate —
  /// callers that scatter many pieces through the same position set
  /// (Zero Radius halving, Small Radius parts) build the mask once and
  /// amortize it across every row.
  void scatter_masked(const BitVector& piece, const BitVector& mask);

  /// Lexicographic comparison by coordinate order (coordinate 0 most
  /// significant), as required by Select's tie-breaking rule (Thm 3.2:
  /// "outputs the lexicographically first vector").
  [[nodiscard]] int lex_compare(const BitVector& other) const;

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && std::equal(data_, data_ + nwords_, other.data_);
  }

  /// In-place XOR; requires equal sizes. Useful to materialize the
  /// disagreement set between two vectors.
  BitVector& operator^=(const BitVector& other);
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }

  BitVector& operator&=(const BitVector& other);
  friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }

  BitVector& operator|=(const BitVector& other);
  friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }

  /// Fill the storage from successive 64-bit draws of `gen` (low word
  /// first, one draw per word); tail bits beyond size() are re-masked.
  /// Lets generators produce 64 coordinates per draw instead of one.
  template <typename Gen>
  void fill_words(Gen&& gen) {
    for (std::size_t i = 0; i < nwords_; ++i) data_[i] = gen();
    clear_tail();
  }

  /// Overwrite word `w` wholesale (coordinates 64w .. 64w+63). Bits
  /// beyond size() in the final word are masked off to preserve the
  /// tail invariant. Lets bulk producers write 64 coordinates with one
  /// store instead of 64 read-modify-writes.
  void set_word(std::size_t w, Word value) {
    data_[w] = value;
    if (w + 1 == nwords_) {
      const std::size_t rem = size_ % kWordBits;
      if (rem != 0) data_[w] &= (Word{1} << rem) - 1;
    }
  }

  /// Indices of the 1-coordinates, ascending.
  [[nodiscard]] std::vector<std::uint32_t> one_positions() const;

  /// Raw word storage (low word first). The tail invariant holds.
  [[nodiscard]] std::span<const Word> words() const { return {data_, nwords_}; }

  /// A 64-bit content hash (FNV-1a over words, mixed with the size).
  [[nodiscard]] std::uint64_t hash() const { return hash(words(), size_); }
  /// hash() of the `size`-bit vector whose words are `words`.
  [[nodiscard]] static std::uint64_t hash(std::span<const Word> words, std::size_t size);

  static std::size_t word_count(std::size_t n) { return (n + kWordBits - 1) / kWordBits; }

 private:
  static constexpr std::size_t kInlineWords = 2;

  [[nodiscard]] bool on_heap() const { return data_ != inline_; }
  void clear_tail();

  std::size_t size_ = 0;
  std::size_t nwords_ = 0;
  Word* data_ = inline_;  // inline_ or a heap block of nwords_ words
  Word inline_[kInlineWords] = {0, 0};
};

}  // namespace tmwia::bits
