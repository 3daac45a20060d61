// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E14 — Byzantine vote manipulation ("some eBay users may be
// dishonest", Section 1). A coalition of liars coordinates on a forged
// vector to cross Zero Radius's popularity threshold. Two policies are
// compared for the honest adopters:
//
//  * probe-verified Select (the paper's design): a forged popular
//    candidate is eliminated at its first distinguishing coordinate —
//    correctness survives ANY liar fraction, the attack only costs
//    extra probes;
//  * trust-the-top-vote (a plausible but naive shortcut): adopt the
//    most-voted vector without probing — poisoned as soon as the
//    coalition outvotes the honest community in some recursion node.
//
// Sweep the liar fraction; report honest-community exactness and probe
// overhead under both policies.
#include <iostream>
#include <numeric>

#include "common.hpp"
#include "tmwia/billboard/billboard.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"

using namespace tmwia;

namespace {

/// The naive policy: one global vote over full posted vectors, everyone
/// adopts the top-voted one (no probing). Simulates what happens when a
/// recommendation system trusts raw popularity.
bits::BitVector top_vote(const std::vector<bits::BitVector>& posts) {
  const auto tallied = billboard::tally(posts, 1);
  const billboard::VotedVector* best = nullptr;
  for (const auto& vv : tallied) {
    if (best == nullptr || vv.votes > best->votes) best = &vv;
  }
  return best->vec;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e14_byzantine");
  const auto seed = args.get_u64("seed", 14);
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 256));
  const double alpha = 0.4;
  const auto params = core::Params::practical();

  io::Table table("E14: coordinated forged-vote attack (community alpha = 0.4, n = 256)",
                  {{"liar_frac", 2}, {"select_exact_rate", 2}, {"probe_overhead_pct", 1},
                   {"topvote_exact_rate", 2}});

  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);
  const auto& community = inst.communities[0];
  const auto outsiders = inst.outsiders();
  const bits::BitVector forged = inst.centers[0] ^ bits::BitVector(n, true);

  const auto players = bench::iota_players(n);
  const auto objects = bench::iota_objects(n);

  // Baseline cost without any liars.
  std::uint64_t clean_probes = 0;
  {
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    core::BitSpace space(oracle, nullptr);
    (void)core::zero_radius(space, players, objects, alpha, params, rng::Rng(seed + 1), n);
    clean_probes = oracle.total_invocations();
  }

  bool ok = true;
  bool naive_poisoned_somewhere = false;
  for (double frac : {0.0, 0.1, 0.2, 0.3, 0.5}) {
    const auto liar_count =
        std::min(outsiders.size(), static_cast<std::size_t>(frac * static_cast<double>(n)));
    std::vector<core::PlayerId> liars(outsiders.begin(),
                                      outsiders.begin() +
                                          static_cast<std::ptrdiff_t>(liar_count));

    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    core::BitSpace space(oracle, nullptr);
    space.set_byzantine(liars, forged);
    const auto outputs =
        core::zero_radius(space, players, objects, alpha, params, rng::Rng(seed + 1), n);

    std::size_t exact = 0;
    for (auto p : community) {
      if (outputs[p] == inst.centers[0]) ++exact;
    }
    const double exact_rate =
        static_cast<double>(exact) / static_cast<double>(community.size());
    const double overhead =
        100.0 * (static_cast<double>(oracle.total_invocations()) /
                     static_cast<double>(clean_probes) -
                 1.0);

    // The naive policy on the same posted data: honest players post
    // their true vectors, liars post the forgery.
    std::vector<bits::BitVector> posts;
    for (auto p : community) posts.push_back(inst.matrix.row(p));
    for (std::size_t i = 0; i < liar_count; ++i) posts.push_back(forged);
    const auto adopted = top_vote(posts);
    const double naive_rate = adopted == inst.centers[0] ? 1.0 : 0.0;
    if (naive_rate == 0.0) naive_poisoned_somewhere = true;

    if (exact_rate < 1.0) ok = false;
    table.add_row({frac, exact_rate, overhead, naive_rate});
  }
  table.print(std::cout);

  ok = ok && naive_poisoned_somewhere;
  std::cout << "\nProbing-based Select is the defense: a forged candidate must match "
               "every honest prober's own hidden bits to survive, so coordinated lying "
               "only adds Select probes (overhead column) and never flips the output. "
               "Raw popularity voting is poisoned as soon as the coalition outvotes the "
               "community.\n";
  return report.finish(ok);
}
