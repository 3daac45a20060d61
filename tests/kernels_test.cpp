// Parity suite for the batched distance-kernel layer: every supported
// backend (scalar, AVX2, AVX-512) must compute the SAME integers as a
// naive per-bit reference on randomized inputs, including non-word-
// aligned tails and TriVector '?' masks. Also covers backend
// selection semantics. Runs under ASan/UBSan via
// tools/run_tests.sh (and the dedicated --kernel-parity stage).
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/bits/trivector.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::bits {
namespace {

/// Every backend this CPU can run — parity cases iterate this list.
std::vector<KernelBackend> supported_backends() {
  std::vector<KernelBackend> out{KernelBackend::kScalar};
  if (kernels::backend_supported(KernelBackend::kAvx2)) {
    out.push_back(KernelBackend::kAvx2);
  }
  if (kernels::backend_supported(KernelBackend::kAvx512)) {
    out.push_back(KernelBackend::kAvx512);
  }
  return out;
}

/// Restores the entry backend on scope exit so parity tests cannot
/// leak a backend override into other tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::requested_backend()) {}
  ~BackendGuard() { kernels::set_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  KernelBackend saved_;
};

BitVector random_bits(std::size_t n, rng::Rng& rng) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(2) == 1) v.set(i, true);
  }
  return v;
}

TriVector random_tri(std::size_t n, rng::Rng& rng) {
  TriVector t(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = rng.uniform(4);
    // 25% '?' so masks are exercised but distances stay informative.
    t.set(i, r == 0 ? Tri::kUnknown : (r == 1 ? Tri::kOne : Tri::kZero));
  }
  return t;
}

std::size_t naive_dist(const BitVector& a, const BitVector& b) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < a.size(); ++i) c += (a.get(i) != b.get(i)) ? 1 : 0;
  return c;
}

std::size_t naive_dtilde(const TriVector& a, const BitVector& b) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.get(i) == Tri::kUnknown) continue;
    if ((a.get(i) == Tri::kOne) != b.get(i)) ++c;
  }
  return c;
}

std::size_t naive_dtilde(const TriVector& a, const TriVector& b) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.get(i) == Tri::kUnknown || b.get(i) == Tri::kUnknown) continue;
    if (a.get(i) != b.get(i)) ++c;
  }
  return c;
}

/// Reference for kernels::known_diff_positions: the disagreement set
/// (a.value ^ b.value) & a.known & b.known through BitVector word ops.
BitVector known_diff(const TriVector& a, const TriVector& b) {
  BitVector d = a.value_plane() ^ b.value_plane();
  d &= a.known_plane();
  d &= b.known_plane();
  return d;
}

// Sizes chosen to hit every dispatch shape: sub-word, exactly one
// word, non-word-aligned tails, AVX2-block (256) and AVX-512-block
// (512) multiples, and sizes just off those boundaries.
const std::size_t kSizes[] = {1, 7, 63, 64, 65, 127, 192, 255, 256,
                              257, 511, 512, 513, 777, 1024, 2048, 2049};

TEST(KernelsBackend, NamesRoundTrip) {
  for (const auto b : {KernelBackend::kScalar, KernelBackend::kAvx2,
                       KernelBackend::kAvx512, KernelBackend::kAuto}) {
    const auto parsed = kernels::parse_backend(kernels::backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(kernels::parse_backend("sse2").has_value());
  EXPECT_FALSE(kernels::parse_backend("").has_value());
}

TEST(KernelsBackend, ScalarAndAutoAlwaysSupported) {
  EXPECT_TRUE(kernels::backend_supported(KernelBackend::kScalar));
  EXPECT_TRUE(kernels::backend_supported(KernelBackend::kAuto));
  EXPECT_NE(kernels::resolve_backend(KernelBackend::kAuto), KernelBackend::kAuto);
}

TEST(KernelsBackend, SetBackendSwitchesActive) {
  const BackendGuard guard;
  for (const auto b : supported_backends()) {
    kernels::set_backend(b);
    EXPECT_EQ(kernels::requested_backend(), b);
    EXPECT_EQ(kernels::active_backend(), b);
  }
  kernels::set_backend(KernelBackend::kAuto);
  EXPECT_EQ(kernels::requested_backend(), KernelBackend::kAuto);
  EXPECT_EQ(kernels::active_backend(),
            kernels::resolve_backend(KernelBackend::kAuto));
}

TEST(KernelsParity, DistMatchesNaiveOnAllBackends) {
  const BackendGuard guard;
  rng::Rng rng(20260808);
  for (const std::size_t n : kSizes) {
    const BitVector a = random_bits(n, rng);
    const BitVector b = random_bits(n, rng);
    const std::size_t want = naive_dist(a, b);
    for (const auto backend : supported_backends()) {
      kernels::set_backend(backend);
      EXPECT_EQ(a.hamming(b), want) << "n=" << n << " backend="
                                    << kernels::backend_name(backend);
    }
  }
}

TEST(KernelsParity, DtildeMatchesNaiveOnAllBackends) {
  const BackendGuard guard;
  rng::Rng rng(7);
  for (const std::size_t n : kSizes) {
    const TriVector a = random_tri(n, rng);
    const TriVector b = random_tri(n, rng);
    const BitVector v = random_bits(n, rng);
    const std::size_t want_tt = naive_dtilde(a, b);
    const std::size_t want_tb = naive_dtilde(a, v);
    for (const auto backend : supported_backends()) {
      kernels::set_backend(backend);
      EXPECT_EQ(a.dtilde(b), want_tt) << "n=" << n << " backend="
                                      << kernels::backend_name(backend);
      EXPECT_EQ(a.dtilde(v), want_tb) << "n=" << n << " backend="
                                      << kernels::backend_name(backend);
    }
  }
}

TEST(KernelsParity, BatchedOpsAgreeAcrossBackends) {
  const BackendGuard guard;
  rng::Rng rng(42);
  for (const std::size_t n : {65UL, 257UL, 513UL, 1000UL}) {
    std::vector<BitVector> vs;
    for (int i = 0; i < 33; ++i) vs.push_back(random_bits(n, rng));
    const BitVector target = random_bits(n, rng);

    // Scalar is the reference; every other backend must match exactly.
    kernels::set_backend(KernelBackend::kScalar);
    std::vector<std::uint32_t> ref_dists(vs.size());
    kernels::dist_many(target, vs, ref_dists);
    const auto ref_arg = kernels::argmin_dist(vs, target);

    for (std::size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(ref_dists[i], naive_dist(target, vs[i]));
    }

    for (const auto backend : supported_backends()) {
      kernels::set_backend(backend);
      std::vector<std::uint32_t> d(vs.size());
      kernels::dist_many(target, vs, d);
      EXPECT_EQ(d, ref_dists) << kernels::backend_name(backend);
      const auto arg = kernels::argmin_dist(vs, target);
      EXPECT_EQ(arg.index, ref_arg.index);
      EXPECT_EQ(arg.dist, ref_arg.dist);
    }
  }
}

TEST(KernelsParity, ArgminBreaksTiesTowardLowestIndex) {
  const BackendGuard guard;
  // vs[1] and vs[3] are both at distance 1; index 1 must win on every
  // backend (the determinism contract).
  std::vector<BitVector> vs{
      BitVector::from_string("1111"), BitVector::from_string("0001"),
      BitVector::from_string("1100"), BitVector::from_string("0100")};
  for (const auto backend : supported_backends()) {
    kernels::set_backend(backend);
    const auto r = kernels::argmin_dist(vs, BitVector::from_string("0000"));
    EXPECT_EQ(r.index, 1U) << kernels::backend_name(backend);
    EXPECT_EQ(r.dist, 1U);
  }
}

TEST(KernelsParity, KnownDiffMatchesNaive) {
  rng::Rng rng(99);
  for (const std::size_t n : {64UL, 193UL, 521UL}) {
    const TriVector a = random_tri(n, rng);
    const TriVector b = random_tri(n, rng);
    const BitVector d = known_diff(a, b);
    for (std::size_t i = 0; i < n; ++i) {
      const bool want = a.get(i) != Tri::kUnknown && b.get(i) != Tri::kUnknown &&
                        a.get(i) != b.get(i);
      EXPECT_EQ(d.get(i), want) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(d.count_ones(), naive_dtilde(a, b));
  }
}

TEST(KernelsParity, KnownDiffPositionsMatchesKnownDiff) {
  const BackendGuard guard;
  rng::Rng rng(314);
  for (const std::size_t n : {64UL, 193UL, 521UL}) {
    const TriVector a = random_tri(n, rng);
    const TriVector b = random_tri(n, rng);
    const auto want = known_diff(a, b).one_positions();
    for (const auto backend : supported_backends()) {
      kernels::set_backend(backend);
      std::vector<std::uint32_t> got{0xdeadbeef};  // must be cleared, not appended
      kernels::known_diff_positions(a, b, got);
      EXPECT_EQ(got, want) << "n=" << n << " backend="
                           << kernels::backend_name(backend);
    }
  }
  const TriVector a(64);
  const TriVector wrong(65);
  std::vector<std::uint32_t> out;
  EXPECT_THROW(kernels::known_diff_positions(a, wrong, out), std::invalid_argument);
}

// ------------------------------------------------- backend provenance

TEST(KernelsProvenance, RunReportRecordsResolvedBackend) {
  const BackendGuard guard;
  rng::Rng rng(5);
  const auto inst = matrix::planted_community(48, 48, {.alpha = 0.5, .radius = 0}, rng);
  kernels::set_backend(KernelBackend::kScalar);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto report =
      core::find_preferences(oracle, nullptr, 0.5, 0, core::Params::practical(), rng::Rng(1));
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"kernel\":\"scalar\""), std::string::npos) << json;
}

TEST(KernelsProvenance, RunReportNeverRecordsAuto) {
  const BackendGuard guard;
  kernels::set_backend(KernelBackend::kAuto);
  const core::RunReport report;  // provenance is read at to_json time
  EXPECT_EQ(report.to_json().find("\"kernel\":\"auto\""), std::string::npos);
  const std::string want = std::string("\"kernel\":\"") +
                           std::string(kernels::backend_name(kernels::active_backend())) +
                           "\"";
  EXPECT_NE(report.to_json().find(want), std::string::npos);
}

TEST(KernelsParity, WordPrimitivesHandleEmptyAndTails) {
  for (const auto backend : supported_backends()) {
    const BackendGuard guard;
    kernels::set_backend(backend);
    EXPECT_EQ(kernels::popcount_words(nullptr, 0), 0U);
    const std::vector<std::uint64_t> a{~0ULL, 0x5555555555555555ULL, 1ULL};
    const std::vector<std::uint64_t> b{0ULL, ~0ULL, 1ULL};
    EXPECT_EQ(kernels::popcount_words(a.data(), a.size()), 64U + 32U + 1U);
    EXPECT_EQ(kernels::xor_popcount_words(a.data(), b.data(), a.size()),
              64U + 32U + 0U);
    EXPECT_EQ(kernels::and_popcount_words(a.data(), b.data(), a.size()),
              0U + 32U + 1U);
  }
}

TEST(KernelsParity, WordPopcountsMatchNaiveOnAllBackends) {
  // popcount_words and and_popcount_words over kSizes: every length
  // from a sub-word tail through the AVX2 4-word and AVX-512 8-word
  // loops, plus their remainders (Coalesce's ball counts run on
  // and_popcount_words).
  const BackendGuard guard;
  rng::Rng rng(2049);
  for (const std::size_t n : kSizes) {
    const BitVector a = random_bits(n, rng);
    const BitVector b = random_bits(n, rng);
    std::size_t want_a = 0;
    std::size_t want_and = 0;
    for (std::size_t i = 0; i < n; ++i) {
      want_a += a.get(i) ? 1 : 0;
      want_and += (a.get(i) && b.get(i)) ? 1 : 0;
    }
    const auto aw = a.words();
    const auto bw = b.words();
    for (const auto backend : supported_backends()) {
      kernels::set_backend(backend);
      EXPECT_EQ(kernels::popcount_words(aw.data(), aw.size()), want_a)
          << "n=" << n << " backend=" << kernels::backend_name(backend);
      EXPECT_EQ(kernels::and_popcount_words(aw.data(), bw.data(), aw.size()), want_and)
          << "n=" << n << " backend=" << kernels::backend_name(backend);
    }
  }
}

TEST(KernelsErrors, MismatchedSizesThrow) {
  const BitVector a(64);
  const BitVector b(65);
  EXPECT_THROW((void)a.hamming(b), std::invalid_argument);
  EXPECT_THROW((void)TriVector(64).dtilde(TriVector(65)), std::invalid_argument);
  EXPECT_THROW((void)TriVector(64).dtilde(b), std::invalid_argument);
  std::vector<BitVector> vs{b};
  std::vector<std::uint32_t> out(1);
  EXPECT_THROW(kernels::dist_many(a, vs, out), std::invalid_argument);
  EXPECT_THROW((void)kernels::argmin_dist(std::span<const BitVector>{}, a),
               std::invalid_argument);
  std::vector<std::uint32_t> small;
  std::vector<BitVector> two{a, a};
  EXPECT_THROW(kernels::dist_many(a, two, small), std::invalid_argument);
}

}  // namespace
}  // namespace tmwia::bits
