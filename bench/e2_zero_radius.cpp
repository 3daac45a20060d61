// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E2 — Theorem 3.1: Algorithm Zero Radius lets an alpha-fraction
// community with *identical* preferences reconstruct its vector exactly
// w.h.p. in O(log n / alpha) probing rounds.
//
// Sweep n (at m = n) and alpha; report rounds (max probes/player), the
// solo cost m, the speedup, and the community success rate. The final
// fit line checks the growth of rounds with n is logarithmic: the
// log-log slope must be well below the slope-1 of solo probing.
#include <iostream>

#include "common.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e2_zero_radius");
  const auto seed = args.get_u64("seed", 2);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 3));
  const auto params = core::Params::practical();

  io::Table table(
      "E2: Zero Radius cost and correctness (Theorem 3.1), m = n, practical constants",
      {{"n"}, {"alpha", 3}, {"rounds_mean", 1}, {"solo (m)"}, {"speedup", 1},
       {"success_rate", 2}});

  bool ok = true;
  std::vector<double> ns, rounds_at_half;
  for (std::size_t n : {256, 512, 1024, 2048, 4096}) {
    for (double alpha : {1.0, 0.5, 0.25}) {
      stats::Summary rounds;
      std::size_t successes = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        rng::Rng gen(seed + t * 1000 + n + static_cast<std::size_t>(alpha * 100));
        auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);
        billboard::ProbeOracle oracle(inst.matrix);
        report.attach(oracle);
        const auto outputs = core::zero_radius_bits(
            oracle, nullptr, bench::iota_players(n), bench::iota_objects(n), alpha, params,
            rng::Rng(seed ^ (t * 77 + n)));
        rounds.add(static_cast<double>(oracle.max_invocations()));
        bool all_exact = true;
        for (auto p : inst.communities[0]) {
          if (outputs[p] != inst.centers[0]) {
            all_exact = false;
            break;
          }
        }
        if (all_exact) ++successes;
      }
      const double rate = static_cast<double>(successes) / static_cast<double>(trials);
      if (rate < 1.0) ok = false;  // w.h.p. at these sizes => expect all-exact
      if (alpha == 0.5) {
        ns.push_back(static_cast<double>(n));
        rounds_at_half.push_back(rounds.mean());
      }
      table.add_row({static_cast<long long>(n), alpha, rounds.mean(),
                     static_cast<long long>(n),
                     static_cast<double>(n) / rounds.mean(), rate});
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(args, table, "e2_zero_radius");

  const auto fit = stats::fit_loglog(ns, rounds_at_half);
  std::cout << "\nGrowth of rounds with n at alpha=1/2: log-log slope = " << fit.slope
            << " (solo probing has slope 1; logarithmic cost gives slope << 1)\n";
  ok = ok && fit.slope < 0.6;
  std::cout << "Paper: O(log n / alpha) rounds, success probability 1 - n^{-Omega(1)}.\n";

  // Ablation: the safety constants. The paper's leaf threshold
  // 8c*ln(n)/alpha exists so that (Chernoff) every recursion node keeps
  // enough typical players; cutting it too far lets a leaf drop below
  // the popularity threshold, and a player's own-half corruption is
  // never revisited. The vote fraction trades the same failure against
  // extra Select candidates.
  {
    io::Table ab("E2a: ablation of leaf constant x vote fraction (n=512, alpha=1/4, "
                 "20 trials): fraction of runs with a wrong community member",
                 {{"zr_leaf_c", 1}, {"vote=0.50", 2}, {"vote=0.25", 2}});
    const std::size_t n = 512;
    const double alpha = 0.25;
    for (double leaf_c : {1.0, 2.0, 4.0, 8.0}) {
      std::vector<double> rates;
      for (double vote : {0.5, 0.25}) {
        auto p = core::Params::practical();
        p.zr_leaf_c = leaf_c;
        p.zr_vote_frac = vote;
        std::size_t bad_runs = 0;
        for (std::size_t t = 0; t < 20; ++t) {
          rng::Rng gen(seed + 31 * t + static_cast<std::uint64_t>(leaf_c * 10));
          auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);
          billboard::ProbeOracle oracle(inst.matrix);
          report.attach(oracle);
          const auto outputs = core::zero_radius_bits(
              oracle, nullptr, bench::iota_players(n), bench::iota_objects(n), alpha, p,
              rng::Rng(seed ^ (t * 7 + static_cast<std::uint64_t>(vote * 100))));
          for (auto pl : inst.communities[0]) {
            if (outputs[pl] != inst.centers[0]) {
              ++bad_runs;
              break;
            }
          }
        }
        rates.push_back(static_cast<double>(bad_runs) / 20.0);
      }
      ab.add_row({leaf_c, rates[0], rates[1]});
    }
    ab.print(std::cout);
    std::cout << "The practical profile's (leaf_c=4, vote=0.25) corner is the cheapest "
                 "one with a zero failure column here; the paper's 8x constant buys "
                 "the n^{-Omega(1)} tail the proofs need.\n";
  }
  return report.finish(ok);
}
