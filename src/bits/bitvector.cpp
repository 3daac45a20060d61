#include "tmwia/bits/bitvector.hpp"

#include <bit>
#include <stdexcept>

#include "tmwia/bits/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace tmwia::bits {
namespace {

using Word = BitVector::Word;

// Deposit the low popcount(mask) bits of `bits` at the 1-positions of
// `mask`. BMI2 pdep does this in one instruction; the portable loop
// walks the mask's set bits. Selected once per process.
#if defined(__x86_64__) || defined(_M_X64)
__attribute__((target("bmi2"))) Word deposit_bmi2(Word bits, Word mask) {
  return _pdep_u64(bits, mask);
}
#endif

Word deposit_portable(Word bits, Word mask) {
  Word out = 0;
  while (mask != 0) {
    const Word low = mask & (~mask + 1);
    if (bits & 1u) out |= low;
    bits >>= 1;
    mask &= mask - 1;
  }
  return out;
}

Word (*resolve_deposit())(Word, Word) {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("bmi2")) return deposit_bmi2;
#endif
  return deposit_portable;
}

Word deposit(Word bits, Word mask) {
  static Word (*const fn)(Word, Word) = resolve_deposit();
  return fn(bits, mask);
}

}  // namespace

BitVector BitVector::from_string(const std::string& s) {
  BitVector v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '1') {
      v.set(i, true);
    } else if (s[i] != '0') {
      throw std::invalid_argument("BitVector::from_string: expected '0' or '1'");
    }
  }
  return v;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) s[i] = '1';
  }
  return s;
}

std::size_t BitVector::count_ones() const {
  return static_cast<std::size_t>(kernels::popcount_words(data_, nwords_));
}

std::size_t BitVector::hamming(const BitVector& other) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::hamming: size mismatch");
  }
  return static_cast<std::size_t>(
      kernels::xor_popcount_words(data_, other.data_, nwords_));
}

std::size_t BitVector::hamming_on(const BitVector& other,
                                  std::span<const std::uint32_t> coords) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::hamming_on: size mismatch");
  }
  std::size_t c = 0;
  for (std::uint32_t j : coords) {
    c += static_cast<std::size_t>(get(j) != other.get(j));
  }
  return c;
}

BitVector BitVector::project(std::span<const std::uint32_t> coords) const {
  BitVector out(coords.size());
  // Destination bits are written in order: accumulate each output word
  // in a register and store it once.
  Word acc = 0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const std::uint32_t c = coords[i];
    acc |= ((data_[c / kWordBits] >> (c % kWordBits)) & Word{1}) << (i % kWordBits);
    if (i % kWordBits == kWordBits - 1) {
      out.data_[i / kWordBits] = acc;
      acc = 0;
    }
  }
  if (coords.size() % kWordBits != 0) out.data_[coords.size() / kWordBits] = acc;
  return out;
}

void BitVector::scatter(const BitVector& piece, std::span<const std::uint32_t> coords) {
  if (piece.size() != coords.size()) {
    throw std::invalid_argument("BitVector::scatter: piece/coords size mismatch");
  }
  // Branchless bit move: clear the target bit, OR in the source bit.
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const std::uint32_t c = coords[i];
    const Word bit = (piece.data_[i / kWordBits] >> (i % kWordBits)) & Word{1};
    Word& w = data_[c / kWordBits];
    w = (w & ~(Word{1} << (c % kWordBits))) | (bit << (c % kWordBits));
  }
}

void BitVector::scatter_masked(const BitVector& piece, const BitVector& mask) {
  if (mask.size() != size_) {
    throw std::invalid_argument("BitVector::scatter_masked: mask/destination size mismatch");
  }
  const Word* pw = piece.data_;
  std::size_t src_pos = 0;  // bit cursor into piece
  for (std::size_t w = 0; w < nwords_; ++w) {
    const Word mw = mask.data_[w];
    if (mw == 0) continue;
    const auto cnt = static_cast<std::size_t>(std::popcount(mw));
    // Gather the next cnt source bits (may straddle a word boundary).
    const std::size_t sw = src_pos / kWordBits;
    const std::size_t sb = src_pos % kWordBits;
    if (src_pos + cnt > piece.size()) {
      throw std::invalid_argument("BitVector::scatter_masked: piece/mask size mismatch");
    }
    Word bits = pw[sw] >> sb;
    if (sb != 0 && sw + 1 < piece.nwords_) bits |= pw[sw + 1] << (kWordBits - sb);
    data_[w] = (data_[w] & ~mw) | deposit(bits, mw);
    src_pos += cnt;
  }
  if (src_pos != piece.size()) {
    throw std::invalid_argument("BitVector::scatter_masked: piece/mask size mismatch");
  }
}

int BitVector::lex_compare(const BitVector& other) const {
  // Coordinate 0 is the most significant position of the lexicographic
  // order, but it is stored in the *low* bit of the low word; compare
  // word by word after bit-reversal would be wasteful, so we locate the
  // first differing coordinate instead.
  const std::size_t nw = std::min(nwords_, other.nwords_);
  for (std::size_t w = 0; w < nw; ++w) {
    const Word diff = data_[w] ^ other.data_[w];
    if (diff != 0) {
      const int bit = std::countr_zero(diff);
      const bool mine = (data_[w] >> bit) & 1u;
      // '0' sorts before '1' at the first differing coordinate.
      return mine ? 1 : -1;
    }
  }
  if (size_ != other.size_) return size_ < other.size_ ? -1 : 1;
  return 0;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::operator^=: size mismatch");
  }
  for (std::size_t i = 0; i < nwords_; ++i) data_[i] ^= other.data_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::operator&=: size mismatch");
  }
  for (std::size_t i = 0; i < nwords_; ++i) data_[i] &= other.data_[i];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::operator|=: size mismatch");
  }
  for (std::size_t i = 0; i < nwords_; ++i) data_[i] |= other.data_[i];
  return *this;
}

std::vector<std::uint32_t> BitVector::one_positions() const {
  std::vector<std::uint32_t> out;
  out.reserve(count_ones());
  for (std::size_t w = 0; w < nwords_; ++w) {
    Word x = data_[w];
    while (x != 0) {
      const int bit = std::countr_zero(x);
      out.push_back(static_cast<std::uint32_t>(w * kWordBits + static_cast<std::size_t>(bit)));
      x &= x - 1;
    }
  }
  return out;
}

std::uint64_t BitVector::hash(std::span<const Word> words, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull ^ (size * 0x9e3779b97f4a7c15ull);
  for (const Word w : words) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

void BitVector::clear_tail() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && nwords_ != 0) {
    data_[nwords_ - 1] &= (Word{1} << rem) - 1;
  }
}

}  // namespace tmwia::bits
