#include "tmwia/bits/kernels.hpp"

#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>

#include "kernels_detail.hpp"

namespace tmwia::bits::kernels {
namespace {

using detail::KernelVTable;

// --- scalar reference backend -----------------------------------------

std::uint64_t scalar_popcnt(const std::uint64_t* a, std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += static_cast<std::uint64_t>(std::popcount(a[i]));
  return c;
}

std::uint64_t scalar_xor_popcnt(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return c;
}

std::uint64_t scalar_xor_and_popcnt(const std::uint64_t* a, const std::uint64_t* b,
                                    const std::uint64_t* m, std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::uint64_t>(std::popcount((a[i] ^ b[i]) & m[i]));
  }
  return c;
}

std::uint64_t scalar_xor_and2_popcnt(const std::uint64_t* a, const std::uint64_t* b,
                                     const std::uint64_t* m1, const std::uint64_t* m2,
                                     std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::uint64_t>(std::popcount((a[i] ^ b[i]) & m1[i] & m2[i]));
  }
  return c;
}

std::uint64_t scalar_and_popcnt(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

// --- dispatch ----------------------------------------------------------

const KernelVTable* table_for(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar: return &detail::scalar_vtable();
    case KernelBackend::kAvx2: return detail::avx2_vtable();
    case KernelBackend::kAvx512: return detail::avx512_vtable();
    case KernelBackend::kAuto: break;
  }
  if (const auto* t = detail::avx512_vtable()) return t;
  if (const auto* t = detail::avx2_vtable()) return t;
  return &detail::scalar_vtable();
}

// Process-global dispatch words. `requested`/`table` are written only
// by set_backend (serial setup by contract, atomics so a misuse can
// never tear) and read on every distance call; `busy` counts engine
// parallel phases in flight and turns mid-phase reselection into a
// loud std::logic_error instead of a silent race.
struct Dispatch {
  std::atomic<std::uint8_t> requested{static_cast<std::uint8_t>(KernelBackend::kAuto)};
  std::atomic<const KernelVTable*> table{table_for(KernelBackend::kAuto)};
  std::atomic<std::size_t> busy{0};
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

const KernelVTable& ops() {
  // Acquire pairs with set_backend's release store: a thread that sees
  // the new pointer sees a fully-published vtable. On x86 this is the
  // same plain load the hot path always paid.
  return *dispatch().table.load(std::memory_order_acquire);
}

void check_pair(const BitVector& a, const BitVector& b, const char* what) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
}

}  // namespace

std::string_view backend_name(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kAvx2: return "avx2";
    case KernelBackend::kAvx512: return "avx512";
    case KernelBackend::kAuto: return "auto";
  }
  return "?";
}

std::optional<KernelBackend> parse_backend(std::string_view name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  if (name == "avx512") return KernelBackend::kAvx512;
  if (name == "auto") return KernelBackend::kAuto;
  return std::nullopt;
}

bool backend_supported(KernelBackend b) { return table_for(b) != nullptr; }

KernelBackend resolve_backend(KernelBackend b) {
  if (b != KernelBackend::kAuto) return b;
  if (detail::avx512_vtable() != nullptr) return KernelBackend::kAvx512;
  if (detail::avx2_vtable() != nullptr) return KernelBackend::kAvx2;
  return KernelBackend::kScalar;
}

void set_backend(KernelBackend b) {
  const KernelVTable* t = table_for(b);
  if (t == nullptr) {
    throw std::invalid_argument("kernels::set_backend: backend '" +
                                std::string(backend_name(b)) +
                                "' is not supported on this CPU");
  }
  auto& d = dispatch();
  if (d.busy.load(std::memory_order_acquire) != 0) {
    throw std::logic_error(
        "kernels::set_backend: engine threads are executing a parallel "
        "phase; select the backend from serial setup code (--kernel=) before "
        "dispatching parallel work");
  }
  d.requested.store(static_cast<std::uint8_t>(b), std::memory_order_relaxed);
  d.table.store(t, std::memory_order_release);
}

ParallelPhaseGuard::ParallelPhaseGuard() {
  dispatch().busy.fetch_add(1, std::memory_order_acq_rel);
}

ParallelPhaseGuard::~ParallelPhaseGuard() {
  dispatch().busy.fetch_sub(1, std::memory_order_acq_rel);
}

KernelBackend requested_backend() {
  return static_cast<KernelBackend>(dispatch().requested.load(std::memory_order_relaxed));
}

KernelBackend active_backend() { return resolve_backend(requested_backend()); }

std::uint64_t popcount_words(const std::uint64_t* a, std::size_t n) {
  return ops().popcnt(a, n);
}

std::uint64_t xor_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  return ops().xor_popcnt(a, b, n);
}

std::uint64_t xor_and_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                     const std::uint64_t* m, std::size_t n) {
  return ops().xor_and_popcnt(a, b, m, n);
}

std::uint64_t xor_and2_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                      const std::uint64_t* m1, const std::uint64_t* m2,
                                      std::size_t n) {
  return ops().xor_and2_popcnt(a, b, m1, m2, n);
}

std::uint64_t and_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  return ops().and_popcnt(a, b, n);
}

void known_diff_positions(const TriVector& a, const TriVector& b,
                          std::vector<std::uint32_t>& out) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("kernels::known_diff_positions: size mismatch");
  }
  out.clear();
  const std::uint64_t* va = a.value_words().data();
  const std::uint64_t* vb = b.value_words().data();
  const std::uint64_t* ka = a.known_words().data();
  const std::uint64_t* kb = b.known_words().data();
  const std::size_t nw = a.value_words().size();
  for (std::size_t w = 0; w < nw; ++w) {
    std::uint64_t bits = (va[w] ^ vb[w]) & ka[w] & kb[w];
    while (bits != 0) {
      const auto tz = static_cast<std::uint32_t>(std::countr_zero(bits));
      out.push_back(static_cast<std::uint32_t>(w * 64) + tz);
      bits &= bits - 1;
    }
  }
}

void dist_many(const BitVector& target, std::span<const BitVector> vs,
               std::span<std::uint32_t> out) {
  if (out.size() < vs.size()) {
    throw std::invalid_argument("kernels::dist_many: output buffer too small");
  }
  const auto& t = ops();
  const std::uint64_t* tw = target.words().data();
  const std::size_t nw = target.words().size();
  for (std::size_t i = 0; i < vs.size(); ++i) {
    check_pair(target, vs[i], "kernels::dist_many");
    out[i] = static_cast<std::uint32_t>(t.xor_popcnt(tw, vs[i].words().data(), nw));
  }
}

ArgminResult argmin_dist(std::span<const BitVector> vs, const BitVector& target) {
  if (vs.empty()) {
    throw std::invalid_argument("kernels::argmin_dist: empty collection");
  }
  const auto& t = ops();
  const std::uint64_t* tw = target.words().data();
  const std::size_t nw = target.words().size();
  ArgminResult best;
  check_pair(target, vs[0], "kernels::argmin_dist");
  best.dist = static_cast<std::size_t>(t.xor_popcnt(tw, vs[0].words().data(), nw));
  for (std::size_t i = 1; i < vs.size(); ++i) {
    check_pair(target, vs[i], "kernels::argmin_dist");
    const auto d = static_cast<std::size_t>(t.xor_popcnt(tw, vs[i].words().data(), nw));
    if (d < best.dist) {
      best.index = i;
      best.dist = d;
    }
  }
  return best;
}

namespace detail {

const KernelVTable& scalar_vtable() {
  static constexpr KernelVTable table{scalar_popcnt, scalar_xor_popcnt,
                                      scalar_xor_and_popcnt, scalar_xor_and2_popcnt,
                                      scalar_and_popcnt};
  return table;
}

}  // namespace detail
}  // namespace tmwia::bits::kernels
