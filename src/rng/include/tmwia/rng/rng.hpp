// Deterministic, splittable random number generation.
//
// The paper's algorithms use *shared* randomness (random partitions of
// players and objects are common knowledge via the billboard) as well as
// per-player randomness (RSelect's coordinate sampling). To make every
// simulation bitwise reproducible — including under thread-parallel
// player execution — all randomness flows from a root seed through
// `Rng::split(tag...)`, which derives statistically independent child
// streams keyed by structural position (phase id, iteration, player id)
// instead of by call order.
//
// Engine: xoshiro256**, seeded via SplitMix64 (Blackman & Vigna). Both
// are implemented here so the library has no dependency on the quality
// or stability of std::mt19937_64 across standard libraries.
#pragma once

#include <array>
#include <cstdint>

namespace tmwia::rng {

/// SplitMix64 step: the recommended seeding/stream-derivation mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Stateless SplitMix64-style hash of three words: deterministic in its
/// inputs and independent across distinct triples. Keyed draws that
/// must not depend on call order use it: sticky probe noise hashes
/// (seed, p, o), the fault plan (seed ^ tag, p, attempt).
constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b * 0xbf58476d1ce4e5b9ull + c + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Bernoulli(p) drawn from a hash: its top 53 bits as a double in
/// [0, 1), below p. p <= 0 never fires; p >= 1 always does.
constexpr bool hash_bernoulli(std::uint64_t h, double p) {
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

/// xoshiro256** engine with splittable sub-stream derivation.
class Rng {
 public:
  /// Seed deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child stream keyed by up to three structural
  /// tags. Does NOT advance this stream: splitting is a pure function of
  /// (current state, tags), so sibling splits with distinct tags are
  /// independent and reproducible regardless of evaluation order.
  [[nodiscard]] Rng split(std::uint64_t tag0, std::uint64_t tag1 = 0,
                          std::uint64_t tag2 = 0) const {
    std::uint64_t sm = state_[0] ^ rotl(state_[1], 13) ^ rotl(state_[2], 29) ^ rotl(state_[3], 43);
    sm ^= 0xd1b54a32d192ed03ull + tag0;
    (void)splitmix64(sm);
    sm ^= 0x8cb92ba72f3d8dd7ull + tag1;
    (void)splitmix64(sm);
    sm ^= 0x9e6c63d0a9964f91ull + tag2;
    Rng child{splitmix64(sm)};
    return child;
  }

  /// Uniform integer in [0, bound). Requires bound >= 1. Uses Lemire's
  /// nearly-divisionless rejection method — unbiased. Inline: partition
  /// and sampling loops draw millions of values per run, and the call
  /// overhead rivals the multiply itself.
  std::uint64_t uniform(std::uint64_t bound) {
    // Lemire 2019, "Fast Random Integer Generation in an Interval".
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) [[unlikely]] {
      const std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli(p).
  bool bernoulli(double p) { return uniform01() < p; }

  /// The raw engine state, for checkpointing. Restoring via
  /// from_state() resumes the stream exactly where state() froze it.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const { return state_; }

  /// Rebuild a generator from a state() snapshot.
  static Rng from_state(const std::array<std::uint64_t, 4>& s) {
    Rng r;
    r.state_ = s;
    return r;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace tmwia::rng
