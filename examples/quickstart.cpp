// Quickstart: the 60-line tour of the tmwia public API.
//
//   1. Build (or bring) a hidden preference matrix.
//   2. Hand it to a Session — the facade that wires the probe oracle
//      and billboard for you.
//   3. Run the main algorithm (here: unknown D, known community
//      fraction alpha).
//   4. Inspect outputs, probe costs and rounds.
//
// Build & run:   ./build/examples/quickstart [--n=256] [--seed=42]
#include <cstdio>
#include <numeric>
#include <vector>

#include "tmwia/core/tmwia.hpp"
#include "tmwia/io/args.hpp"

namespace {
std::vector<std::uint32_t> first_64() {
  std::vector<std::uint32_t> c(64);
  std::iota(c.begin(), c.end(), 0u);
  return c;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace tmwia;
  const io::Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_u64("n", 256));
  const auto seed = args.get_u64("seed", 42);

  // A world with 256 users and 256 items: half the users form a "taste
  // community" whose opinions differ pairwise in at most ~4 items; the
  // rest are arbitrary.
  rng::Rng gen(seed);
  matrix::Instance inst = matrix::planted_community(n, n, {/*alpha=*/0.5, /*radius=*/2}, gen);

  // Reconstruct everyone's preferences. alpha is the assumed community
  // fraction; D (the community diameter) is NOT needed — the driver
  // guesses D = 0, 1, 2, 4, ... and each player picks its best result.
  // The Session owns the probe oracle (which charges every probe) and
  // the shared billboard.
  Session session(inst.matrix);
  const core::RunReport result = session.alpha(0.5).seed(seed + 1).run();

  // How well did the community do?
  const auto& community = inst.communities[0];
  const std::size_t D = inst.matrix.subset_diameter(community);
  const std::size_t disc = inst.matrix.discrepancy(result.outputs, community);
  std::printf("community of %zu players, true diameter D = %zu\n", community.size(), D);
  std::printf("worst community member error: %zu items (stretch %.2f)\n", disc,
              inst.matrix.stretch(result.outputs, community));
  std::printf("rounds used: %llu (solo probing would need m = %zu)\n",
              static_cast<unsigned long long>(result.rounds), inst.matrix.objects());
  std::printf("total probes across all players: %llu\n",
              static_cast<unsigned long long>(result.total_probes));

  // Individual estimates are plain bit vectors:
  const matrix::PlayerId someone = community[0];
  const auto head = first_64();
  std::printf("player %u likes %zu of the first 64 items; estimate agrees on %zu/64\n",
              someone, inst.matrix.row(someone).project(head).count_ones(),
              64 - result.outputs[someone].hamming_on(inst.matrix.row(someone), head));
  return 0;
}
