// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E10 — Section 6: the anytime algorithm. Without knowing alpha (or D),
// run phases with alpha = 1/2, 1/4, ...; after each phase every player
// keeps the better of its previous and new output via RSelect. At any
// stopping time the quality should be close to the best achievable for
// the rounds spent so far.
//
// To keep the budget axis *below* the solo cost m at laptop scale, the
// phases run the D = 0 algorithm (Zero Radius) — the general unknown-D
// phases have exactly the same doubling structure but their safety
// constants exceed m at these sizes (see E8's scale note).
//
// Workload: one exact-agreement community of fraction alpha* = 1/8.
// Phases with alpha > alpha* cannot resolve it (the vote thresholds are
// too high for a 1/8 minority); the alpha = 1/8 phase locks the
// discrepancy to 0 — and the cumulative rounds are still well under m.
//
// The phases use the paper's alpha/2 vote fraction rather than
// practical()'s 0.25: the blindness claim needs the phase-1 quorum
// (zr_vote_frac * alpha) to sit strictly ABOVE the planted fraction
// 1/8, and 0.25 * 0.5 lands exactly ON it — a coin-flip verdict.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e10_anytime");
  const auto seed = args.get_u64("seed", 10);
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 1024));
  auto params = core::Params::practical();
  params.zr_vote_frac = 0.5;  // paper's alpha/2 quorum (see header note)

  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, n, {0.125, 0}, gen);

  io::Table table("E10: anytime quality vs budget (community alpha*=1/8, D=0, n=m=1024)",
                  {{"phase"}, {"alpha", 4}, {"cum_rounds"}, {"community_disc"},
                   {"solo budget m"}});

  billboard::ProbeOracle oracle(inst.matrix);
  report.attach(oracle);
  const auto players = bench::iota_players(n);
  const auto objects = bench::iota_objects(n);
  const auto before = oracle.snapshot();

  std::vector<bits::BitVector> current(n, bits::BitVector(n));
  std::vector<std::size_t> discs;
  for (std::size_t phase = 1; phase <= 3; ++phase) {
    const double alpha = std::pow(0.5, static_cast<double>(phase));
    auto run = core::zero_radius_bits(oracle, nullptr, players, objects, alpha, params,
                                      rng::Rng(seed ^ (phase * 7919)));
    if (phase == 1) {
      current = std::move(run);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<bits::BitVector> cands{current[i], run[i]};
        rng::Rng prng = rng::Rng(seed).split(phase, i);
        const auto sel = core::rselect_closest(
            cands, n,
            [&](std::uint32_t j) {
              return oracle.probe(static_cast<matrix::PlayerId>(i), j);
            },
            prng, params);
        if (sel.index == 1) current[i] = std::move(run[i]);
      }
    }
    const auto disc = inst.matrix.discrepancy(current, inst.communities[0]);
    discs.push_back(disc);
    table.add_row({static_cast<long long>(phase), alpha,
                   static_cast<long long>(oracle.rounds_since(before)),
                   static_cast<long long>(disc), static_cast<long long>(n)});
  }
  table.print(std::cout);

  const auto total_rounds = oracle.rounds_since(before);
  const bool early_blind = discs.front() > n / 8;   // alpha=1/2 can't see a 1/8 community
  const bool final_exact = discs.back() == 0;       // alpha=1/8 phase resolves it
  const bool under_solo = total_rounds < n / 2;     // entire schedule beats solo probing
  const bool ok = early_blind && final_exact && under_solo;
  report.metric("rounds", static_cast<double>(total_rounds));
  report.metric("final_discrepancy", static_cast<double>(discs.back()));

  std::cout << "\nPaper (Section 6): repeated doubling over alpha yields an anytime "
               "algorithm whose output at time t is close to the best possible for a "
               "t-round budget. Measured: the alpha = 1/2 phase cannot see a 1/8 "
               "community (disc ~ m/2); once alpha reaches the community's scale "
               "(within the 2x the vote-fraction slack allows) the discrepancy drops "
               "to 0, and the whole schedule costs "
            << total_rounds << " rounds — under half the solo budget m = " << n
            << ". RSelect's keep-the-better step makes quality non-regressing.\n";
  return report.finish(ok);
}
