// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E6 — Theorem 5.4: Algorithm Large Radius handles D >> log n with
// output error O(D/alpha) and probing cost polylogarithmic in n
// (for m = Theta(n); a factor m/n more otherwise).
//
// Sweep D at fixed n and n at fixed D/m ratio; report worst typical
// error relative to the O(D/alpha) bound, rounds, and agreement of
// typical players (step 4's zero-diameter virtual instance).
#include <iostream>

#include "common.hpp"
#include "tmwia/core/large_radius.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e6_large_radius");
  const auto seed = args.get_u64("seed", 6);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 3));
  const double alpha = args.get_double("alpha", 0.5);
  const auto params = core::Params::practical();

  io::Table table("E6: Large Radius error and cost (Theorem 5.4), alpha=1/2",
                  {{"n"}, {"m"}, {"D"}, {"groups L"}, {"worst_err"}, {"err/(D/a)", 2},
                   {"rounds", 0}, {"solo m"}, {"agree_rate", 2}});

  bool ok = true;
  struct Case {
    std::size_t n, m, radius;
  };
  for (const Case& c : {Case{256, 512, 16}, Case{256, 512, 32}, Case{512, 1024, 32},
                        Case{512, 1024, 64}, Case{1024, 2048, 64}}) {
    stats::Summary rounds;
    std::size_t worst_err = 0, D_used = 0, L = 0;
    std::size_t agree = 0, total = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      rng::Rng gen(seed + t * 997 + c.n + c.radius);
      auto inst = matrix::planted_community(c.n, c.m, {alpha, c.radius}, gen);
      const auto D = inst.matrix.subset_diameter(inst.communities[0]);
      D_used = D;
      billboard::ProbeOracle oracle(inst.matrix);
      report.attach(oracle);
      const auto res = core::large_radius(oracle, nullptr, bench::iota_players(c.n),
                                          bench::iota_objects(c.m), alpha, D, params,
                                          rng::Rng(seed ^ (t * 13 + c.radius)));
      L = res.parts;
      rounds.add(static_cast<double>(oracle.max_invocations()));
      const auto& first = res.outputs[inst.communities[0][0]];
      for (auto p : inst.communities[0]) {
        worst_err = std::max(worst_err, res.outputs[p].hamming(inst.matrix.row(p)));
        ++total;
        if (res.outputs[p] == first) ++agree;
      }
    }
    const double ratio =
        static_cast<double>(worst_err) / (static_cast<double>(D_used) / alpha);
    const double agree_rate = static_cast<double>(agree) / static_cast<double>(total);
    if (ratio > 4.0) ok = false;
    if (agree_rate < 0.95) ok = false;
    table.add_row({static_cast<long long>(c.n), static_cast<long long>(c.m),
                   static_cast<long long>(D_used), static_cast<long long>(L),
                   static_cast<long long>(worst_err), ratio, rounds.mean(),
                   static_cast<long long>(c.m), agree_rate});
  }
  table.print(std::cout);
  std::cout << "\nPaper: error O(D/alpha) [column err/(D/a) bounded by a constant]; "
               "typical players end with identical outputs (step 4 runs a zero-diameter "
               "virtual instance); probes O(log^{7/2} n / alpha^2) for m = Theta(n).\n";
  return report.finish(ok);
}
