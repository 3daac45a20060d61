// Unit tests for the bits module: BitVector, TriVector, Hamming
// helpers. These are the value types every algorithm builds on, so the
// suite covers boundaries (word edges, empty vectors) and the exact
// semantics the paper's proofs rely on (d-tilde ignoring ?, merge
// absorbing ?).
#include <gtest/gtest.h>

#include <string>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/bits/trivector.hpp"
#include "tmwia/rng/rng.hpp"
#include "trivector_text.hpp"

namespace tmwia::bits {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.count_ones(), 0u);
}

TEST(BitVector, ConstructZeroed) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, ConstructFilled) {
  BitVector v(130, true);
  EXPECT_EQ(v.count_ones(), 130u);
  // tail invariant: hamming against itself stays 0 even via word ops
  EXPECT_EQ(v.hamming(v), 0u);
}

TEST(BitVector, SetGetFlipAcrossWordBoundary) {
  BitVector v(129);
  for (std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u}) {
    EXPECT_FALSE(v.get(i));
    v.set(i, true);
    EXPECT_TRUE(v.get(i));
    v.flip(i);
    EXPECT_FALSE(v.get(i));
  }
}

TEST(BitVector, FromToStringRoundTrip) {
  const std::string s = "0110100111010001";
  EXPECT_EQ(BitVector::from_string(s).to_string(), s);
}

TEST(BitVector, FromStringRejectsBadChars) {
  EXPECT_THROW(BitVector::from_string("01x"), std::invalid_argument);
}

TEST(BitVector, HammingBasics) {
  const auto a = BitVector::from_string("0011");
  const auto b = BitVector::from_string("0101");
  EXPECT_EQ(a.hamming(b), 2u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVector, HammingSizeMismatchThrows) {
  BitVector a(4), b(5);
  EXPECT_THROW((void)a.hamming(b), std::invalid_argument);
}

TEST(BitVector, HammingLargeRandom) {
  rng::Rng r(42);
  BitVector a(1000), b(1000);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const bool x = (r.next() >> 63) != 0;
    const bool y = (r.next() >> 63) != 0;
    a.set(i, x);
    b.set(i, y);
    if (x != y) ++expected;
  }
  EXPECT_EQ(a.hamming(b), expected);
}

TEST(BitVector, HammingOnSubset) {
  const auto a = BitVector::from_string("00110011");
  const auto b = BitVector::from_string("01010101");
  const std::vector<std::uint32_t> coords{0, 1, 2};
  // positions: a=001 b=010 -> differ at 1 and 2
  EXPECT_EQ(a.hamming_on(b, coords), 2u);
}

TEST(BitVector, ProjectAndScatterRoundTrip) {
  const auto v = BitVector::from_string("10110100");
  const std::vector<std::uint32_t> coords{1, 3, 6};
  const auto piece = v.project(coords);
  EXPECT_EQ(piece.to_string(), "010");

  BitVector w(8);
  w.scatter(piece, coords);
  EXPECT_EQ(w.to_string(), "00010000");
}

TEST(BitVector, ScatterSizeMismatchThrows) {
  BitVector w(8);
  const std::vector<std::uint32_t> coords{1, 3};
  EXPECT_THROW(w.scatter(BitVector(3), coords), std::invalid_argument);
}

TEST(BitVector, LexCompareFirstCoordinateMostSignificant) {
  const auto a = BitVector::from_string("0111");
  const auto b = BitVector::from_string("1000");
  EXPECT_LT(a.lex_compare(b), 0);
  EXPECT_GT(b.lex_compare(a), 0);
  EXPECT_EQ(a.lex_compare(a), 0);
}

TEST(BitVector, LexCompareAcrossWords) {
  BitVector a(100), b(100);
  a.set(70, true);
  b.set(71, true);
  // first difference at coord 70: a has 1, b has 0 -> a sorts after b
  EXPECT_GT(a.lex_compare(b), 0);
}

TEST(BitVector, LexComparePrefix) {
  const auto a = BitVector::from_string("01");
  const auto b = BitVector::from_string("010");
  EXPECT_LT(a.lex_compare(b), 0);
}

TEST(BitVector, XorAndOr) {
  const auto a = BitVector::from_string("0011");
  const auto b = BitVector::from_string("0101");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((a & b).to_string(), "0001");
  EXPECT_EQ((a | b).to_string(), "0111");
}

TEST(BitVector, OnePositions) {
  const auto v = BitVector::from_string("0100100001");
  const auto pos = v.one_positions();
  ASSERT_EQ(pos.size(), 3u);
  EXPECT_EQ(pos[0], 1u);
  EXPECT_EQ(pos[1], 4u);
  EXPECT_EQ(pos[2], 9u);
}

TEST(BitVector, HashDiffersOnContentAndSize) {
  const auto a = BitVector::from_string("0101");
  const auto b = BitVector::from_string("0111");
  BitVector c(4), d(5);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(c.hash(), d.hash());
  EXPECT_EQ(a.hash(), BitVector::from_string("0101").hash());
}

// ---------------------------------------------------------------- TriVector

TEST(TriVector, DefaultAllUnknown) {
  TriVector t(5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.get(i), Tri::kUnknown);
  }
  EXPECT_EQ(t.unknown_count(), 5u);
}

TEST(TriVector, SetGetAllValues) {
  TriVector t(3);
  t.set(0, Tri::kZero);
  t.set(1, Tri::kOne);
  t.set(2, Tri::kUnknown);
  EXPECT_EQ(t.get(0), Tri::kZero);
  EXPECT_EQ(t.get(1), Tri::kOne);
  EXPECT_EQ(t.get(2), Tri::kUnknown);
  EXPECT_EQ(tri_to_string(t), "01?");
}

TEST(TriVector, FromBitsHasNoUnknowns) {
  const auto t = TriVector::from_bits(BitVector::from_string("0101"));
  EXPECT_EQ(t.unknown_count(), 0u);
  EXPECT_EQ(tri_to_string(t), "0101");
}

TEST(TriVector, FromToStringRoundTrip) {
  const std::string s = "01?10??1";
  EXPECT_EQ(tri_to_string(tri_from_string(s)), s);
}

TEST(TriVector, DtildeIgnoresUnknown) {
  const auto a = tri_from_string("01?1");
  const auto b = tri_from_string("0?01");
  // coordinates with both known: 0 (0 vs 0), 3 (1 vs 1) -> 0 diffs
  EXPECT_EQ(a.dtilde(b), 0u);

  const auto c = tri_from_string("11?0");
  // both-known coords vs a: 0 (0 vs 1 differ), 1 (1 vs 1), 3 (1 vs 0 differ)
  EXPECT_EQ(a.dtilde(c), 2u);
}

TEST(TriVector, DtildeAgainstBitVector) {
  const auto a = tri_from_string("0?1");
  const auto v = BitVector::from_string("011");
  EXPECT_EQ(a.dtilde(v), 0u);
  const auto w = BitVector::from_string("110");
  EXPECT_EQ(a.dtilde(w), 2u);
}

TEST(TriVector, MergeAgreementsKeptDisagreementsErased) {
  const auto a = tri_from_string("0101");
  const auto b = tri_from_string("0110");
  const auto m = a.merge(b);
  EXPECT_EQ(tri_to_string(m), "01??");
}

TEST(TriVector, MergeUnknownIsAbsorbing) {
  // Lemma 5.1 requires that a merged vector never asserts a value any
  // merge ancestor disagreed on, so ? must absorb.
  const auto a = tri_from_string("0?1");
  const auto b = tri_from_string("011");
  const auto m = a.merge(b);
  EXPECT_EQ(tri_to_string(m), "0?1");
}

TEST(TriVector, FillUnknown) {
  const auto a = tri_from_string("0?1?");
  EXPECT_EQ(a.fill_unknown(false).to_string(), "0010");
  EXPECT_EQ(a.fill_unknown(true).to_string(), "0111");
}

TEST(TriVector, LexCompareOrdersZeroOneUnknown) {
  const auto z = tri_from_string("0");
  const auto o = tri_from_string("1");
  const auto u = tri_from_string("?");
  EXPECT_LT(z.lex_compare(o), 0);
  EXPECT_LT(o.lex_compare(u), 0);
  EXPECT_LT(z.lex_compare(u), 0);
}

// ---------------------------------------------------------------- kernels.hpp
// The collection argmin on a hand-checkable input; the full backend
// parity suite is tests/kernels_test.cpp.

TEST(Hamming, ArgminDist) {
  std::vector<BitVector> vs{BitVector::from_string("1111"), BitVector::from_string("0011"),
                            BitVector::from_string("0001")};
  EXPECT_EQ(kernels::argmin_dist(vs, BitVector::from_string("0000")).index, 2u);
}

}  // namespace
}  // namespace tmwia::bits
