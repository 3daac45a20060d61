// bits/kernels: the batched distance-kernel layer.
//
// Every algorithm in the tower (Select/RSelect, Zero/Small/Large
// Radius, Coalesce) ultimately reduces to Hamming arithmetic over
// packed 64-bit words. This module is the single home of that
// arithmetic: word-span popcount primitives at the bottom, batched
// collection operations (one-vs-many distance, argmin) on top, all
// behind a process-global KernelBackend chosen by runtime CPU dispatch
// (scalar | AVX2 | AVX-512 | auto).
//
// Determinism contract: every backend computes the SAME integers —
// popcounts are exact, accumulation order never affects the result,
// and argmin breaks ties toward the LOWEST index. Switching backends
// must never change a run's output, its RunReport, or a
// flight-recorder log byte; the kernel parity suite
// (tests/kernels_test.cpp) enforces this for every supported backend
// on randomized sizes including non-word-aligned tails and TriVector
// '?' masks.
//
// One-pair distances are BitVector::hamming and TriVector::dtilde,
// which check sizes and call the word primitives below; src/core and
// src/billboard use the batched API so per-pair call overhead is paid
// once per collection, not once per element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/trivector.hpp"

namespace tmwia::bits {

/// Which word-kernel implementation services distance calls.
///  * kScalar — portable C++ (std::popcount), the reference backend;
///  * kAvx2   — 256-bit XOR/AND + pshufb nibble popcount;
///  * kAvx512 — 512-bit lanes with VPOPCNTQ (requires AVX-512 F/BW/VL
///              + VPOPCNTDQ);
///  * kAuto   — resolve to the widest backend this CPU supports.
enum class KernelBackend : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kAuto = 3 };

namespace kernels {

/// Canonical lowercase name ("scalar", "avx2", "avx512", "auto").
std::string_view backend_name(KernelBackend b);

/// Inverse of backend_name; nullopt for anything else.
std::optional<KernelBackend> parse_backend(std::string_view name);

/// Is this backend executable on the current CPU? (kScalar and kAuto
/// are always supported.)
bool backend_supported(KernelBackend b);

/// Resolve kAuto to the widest supported backend; identity otherwise.
KernelBackend resolve_backend(KernelBackend b);

/// Select the process-global backend. kAuto (the default) defers to
/// CPU detection. Throws std::invalid_argument for a backend this CPU
/// cannot run.
///
/// Thread safety: the dispatch state is a pair of atomics (requested
/// backend word + vtable pointer, release-published and
/// acquire-consumed), so selection never tears a concurrent distance
/// call. Changing the backend while engine threads are executing a
/// parallel phase is still a protocol error — different workers could
/// service one batch with different (identical-result but
/// different-cost) kernels — so set_backend throws std::logic_error
/// while any ParallelPhaseGuard is open. Select the backend from
/// serial setup code (the CLI --kernel flag, bench setup); between
/// phases the pool is idle and reselection is legal (the kernel parity
/// suites switch backends run-to-run).
void set_backend(KernelBackend b);

/// RAII gate the execution engine opens around every pooled parallel
/// phase (engine::ThreadPool::run); set_backend refuses
/// with std::logic_error while any gate is open. Not for general use.
class ParallelPhaseGuard {
 public:
  ParallelPhaseGuard();
  ~ParallelPhaseGuard();
  ParallelPhaseGuard(const ParallelPhaseGuard&) = delete;
  ParallelPhaseGuard& operator=(const ParallelPhaseGuard&) = delete;
};

/// The backend as requested (may be kAuto).
KernelBackend requested_backend();

/// The backend actually servicing calls (never kAuto).
KernelBackend active_backend();

// ---------------------------------------------------------------------
// Word-span primitives. `n` is the word count; all spans must hold at
// least n words. These are the only functions the SIMD translation
// units implement — everything else is built from them.
// ---------------------------------------------------------------------

/// popcount(a)
std::uint64_t popcount_words(const std::uint64_t* a, std::size_t n);
/// popcount(a ^ b) — plain Hamming distance over words.
std::uint64_t xor_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n);
/// popcount((a ^ b) & m) — Hamming distance under one mask (d-tilde
/// against a fully-known vector).
std::uint64_t xor_and_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                     const std::uint64_t* m, std::size_t n);
/// popcount((a ^ b) & m1 & m2) — Hamming distance under two masks
/// (d-tilde between two TriVectors).
std::uint64_t xor_and2_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                      const std::uint64_t* m1, const std::uint64_t* m2,
                                      std::size_t n);
/// popcount(a & b)
std::uint64_t and_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n);

/// Ascending coordinates of the disagreement set (a.value ^ b.value) &
/// a.known & b.known — where two TriVectors are both known and differ
/// (RSelect's X set) — written into a caller-owned buffer, which is
/// cleared first, so RSelect's per-pair loop allocates nothing.
void known_diff_positions(const TriVector& a, const TriVector& b,
                          std::vector<std::uint32_t>& out);

// ---------------------------------------------------------------------
// Batched collection operations. All of them iterate the collection in
// index order, so ties resolve to the lowest index on every backend.
// ---------------------------------------------------------------------

/// One-vs-many distance into a caller-provided buffer:
/// out[i] = dist(target, vs[i]). out.size() must be >= vs.size().
void dist_many(const BitVector& target, std::span<const BitVector> vs,
               std::span<std::uint32_t> out);

struct ArgminResult {
  std::size_t index = 0;  ///< lowest index attaining the minimum
  std::size_t dist = 0;   ///< the minimum distance
};

/// Index of the vector in `vs` closest to `target` (ties: lowest
/// index). Precondition: vs non-empty.
ArgminResult argmin_dist(std::span<const BitVector> vs, const BitVector& target);

}  // namespace kernels
}  // namespace tmwia::bits
