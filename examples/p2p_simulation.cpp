// P2P simulation — the paper's execution model, literally: "a
// distributed randomized peer-to-peer algorithm" where "in each round,
// each player reads the shared billboard, probes one object, and writes
// the result on the billboard."
//
// This example runs Zero Radius as genuinely independent per-player
// state machines under the lockstep RoundScheduler (no central
// coordinator beyond the clock): every peer derives the shared
// recursion tree from the common coins, probes its own leaf, publishes
// its vectors, awaits its sibling half and adopts by vote + Select. It
// then cross-checks the distributed run against the centralized engine
// — same coins, bit-identical answers — which is the faithfulness
// argument behind the fast simulations used everywhere else.
//
// Run: ./build/examples/p2p_simulation [--peers=256] [--seed=21]
#include <cstdio>
#include <numeric>

#include "tmwia/core/tmwia.hpp"
#include "tmwia/io/args.hpp"

int main(int argc, char** argv) {
  using namespace tmwia;
  const io::Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_u64("peers", 256));
  const auto seed = args.get_u64("seed", 21);

  rng::Rng gen(seed);
  auto world = matrix::planted_community(n, n, {0.5, 0}, gen);
  std::printf("P2P world: %zu peers, %zu objects, one exact-taste community of %zu\n\n",
              n, n, world.communities[0].size());

  const rng::Rng common_coins(seed ^ 0xC01);

  // --- the real thing: lockstep peers -----------------------------------
  billboard::ProbeOracle oracle(world.matrix);
  const auto dist = core::zero_radius_distributed(oracle, 0.5, core::Params::practical(),
                                                  common_coins);
  std::printf("distributed run: %zu lockstep rounds (%zu idle waits), all peers done: %s\n",
              dist.schedule.rounds, dist.schedule.idle_probes,
              dist.schedule.all_done ? "yes" : "no");
  std::printf("max probes by any peer: %llu (solo probing would need %zu)\n",
              static_cast<unsigned long long>(oracle.max_invocations()), n);

  std::size_t exact = 0;
  for (auto p : world.communities[0]) {
    if (dist.outputs[p] == world.centers[0]) ++exact;
  }
  std::printf("community members with exact reconstruction: %zu/%zu\n\n", exact,
              world.communities[0].size());

  // --- cross-check against the centralized engine -----------------------
  billboard::ProbeOracle oracle2(world.matrix);
  std::vector<core::PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(n);
  std::iota(objects.begin(), objects.end(), 0u);
  const auto central = core::zero_radius_bits(oracle2, nullptr, players, objects, 0.5,
                                              core::Params::practical(), common_coins);

  std::size_t identical = 0;
  bool probes_match = true;
  for (core::PlayerId p = 0; p < n; ++p) {
    if (dist.outputs[p] == central[p]) ++identical;
    if (oracle.invocations(p) != oracle2.invocations(p)) probes_match = false;
  }
  std::printf("centralized-engine cross-check: %zu/%zu outputs bit-identical, per-peer "
              "probe counts %s\n",
              identical, n, probes_match ? "identical" : "DIFFER");
  return (identical == n && probes_match && exact == world.communities[0].size()) ? 0 : 1;
}
