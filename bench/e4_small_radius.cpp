// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E4 — Theorem 4.4: Algorithm Small Radius gives every typical player
// an output within 5D of its own vector, in
// O(K * D^{3/2} * (D + log n) / alpha) probing rounds.
//
// Sweep D; report the worst community stretch (must be <= 5), the
// rounds, and the theorem's cost shape. An --ablate run additionally
// sweeps the s-multiplier (the Lemma 4.1 constant) to expose the
// cost/robustness trade the paper's 100x constant buys.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e4_small_radius");
  const auto seed = args.get_u64("seed", 4);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 3));
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 512));
  const std::size_t m = static_cast<std::size_t>(args.get_u64("m", 1024));
  const double alpha = args.get_double("alpha", 0.5);
  auto params = core::Params::practical();

  io::Table table("E4: Small Radius error and cost vs D (Theorem 4.4), n=512 m=1024",
                  {{"D"}, {"parts s"}, {"worst_err"}, {"stretch", 2}, {"rounds_mean", 0},
                   {"bound_shape", 0}});

  bool ok = true;
  for (std::size_t radius : {1, 2, 4, 8}) {
    stats::Summary rounds;
    std::size_t worst_err = 0;
    std::size_t D_used = 0;
    std::size_t parts = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      rng::Rng gen(seed + t * 131 + radius);
      auto inst = matrix::planted_community(n, m, {alpha, radius}, gen);
      const auto D = std::max<std::size_t>(
          1, inst.matrix.subset_diameter(inst.communities[0]));
      D_used = D;
      billboard::ProbeOracle oracle(inst.matrix);
      report.attach(oracle);
      const auto res = core::small_radius(oracle, nullptr, bench::iota_players(n),
                                          bench::iota_objects(m), alpha, D, params,
                                          rng::Rng(seed ^ (t + radius * 31)), n, "sr");
      parts = res.parts;
      rounds.add(static_cast<double>(oracle.max_invocations()));
      for (auto p : inst.communities[0]) {
        worst_err = std::max(worst_err, res.outputs[p].hamming(inst.matrix.row(p)));
      }
    }
    const double stretch = static_cast<double>(worst_err) / static_cast<double>(D_used);
    if (stretch > 5.0) ok = false;
    const auto leaf =
        core::zero_radius_leaf_threshold(n, alpha / params.sr_vote_div, params);
    const double shape =
        static_cast<double>(params.sr_K) * static_cast<double>(parts) *
        static_cast<double>(D_used + leaf);
    if (rounds.mean() > 4.0 * shape) ok = false;
    table.add_row({static_cast<long long>(D_used), static_cast<long long>(parts),
                   static_cast<long long>(worst_err), stretch, rounds.mean(), shape});
  }
  table.print(std::cout);
  std::cout << "\nPaper: error <= 5D for every typical player; rounds = "
               "O(K D^{3/2} (D + log n)/alpha) [column bound_shape, measured within 4x].\n";

  // Ablation: the Lemma 4.1 constant. More parts = higher per-iteration
  // success probability but proportionally more probing.
  io::Table ab("E4a: ablation of the s-multiplier (D = 4 planted radius 2)",
               {{"s_mult", 1}, {"parts s"}, {"worst_err"}, {"rounds", 0}});
  for (double s_mult : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    params.sr_s_mult = s_mult;
    rng::Rng gen(seed + 9999);
    auto inst = matrix::planted_community(n, m, {alpha, 2}, gen);
    const auto D =
        std::max<std::size_t>(1, inst.matrix.subset_diameter(inst.communities[0]));
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    const auto res =
        core::small_radius(oracle, nullptr, bench::iota_players(n), bench::iota_objects(m),
                           alpha, D, params, rng::Rng(seed ^ 0x5a), n, "sr");
    std::size_t worst = 0;
    for (auto p : inst.communities[0]) {
      worst = std::max(worst, res.outputs[p].hamming(inst.matrix.row(p)));
    }
    ab.add_row({s_mult, static_cast<long long>(res.parts), static_cast<long long>(worst),
                static_cast<double>(oracle.max_invocations())});
  }
  ab.print(std::cout);
  return report.finish(ok);
}
