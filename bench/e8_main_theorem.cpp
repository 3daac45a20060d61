// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E8 — Theorem 1.1 end to end: with m = Theta(n) and any typical set of
// Omega(n) players, the full algorithm (unknown D, known alpha) gives
// every typical player constant stretch after polylog(n) rounds.
//
// Workload: two planted communities of different radii plus noise
// players — nothing low-rank about it. Sweep n; report worst stretch
// over both communities, rounds, the solo cost m, and close with the
// log-log fit of rounds vs n (polylog => slope well below 1).
#include <iostream>

#include "common.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e8_main_theorem");
  const auto seed = args.get_u64("seed", 8);
  const auto params = core::Params::practical();

  io::Table table(
      "E8: Theorem 1.1 — unknown-D algorithm, two communities (alpha=1/4 each) + noise",
      {{"n (=m)"}, {"D1"}, {"D2"}, {"stretch1", 2}, {"stretch2", 2}, {"rounds"},
       {"solo m"}, {"rounds/m", 3}});

  bool ok = true;
  std::vector<double> ns, rounds_list;
  for (std::size_t n : {128, 256, 512, 1024}) {
    rng::Rng gen(seed + n);
    auto inst = matrix::planted_communities(
        n, n, {{0.25, 1 + n / 256}, {0.25, 4 + n / 128}}, gen);
    const auto d1 = inst.matrix.subset_diameter(inst.communities[0]);
    const auto d2 = inst.matrix.subset_diameter(inst.communities[1]);

    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    const auto res = core::find_preferences_unknown_d(oracle, nullptr, 0.25, params,
                                                      rng::Rng(seed ^ n));

    const double s1 = inst.matrix.stretch(res.outputs, inst.communities[0]);
    const double s2 = inst.matrix.stretch(res.outputs, inst.communities[1]);
    if (s1 > 8.0 || s2 > 8.0) ok = false;

    ns.push_back(static_cast<double>(n));
    rounds_list.push_back(static_cast<double>(res.rounds));
    table.add_row({static_cast<long long>(n), static_cast<long long>(d1),
                   static_cast<long long>(d2), s1, s2,
                   static_cast<long long>(res.rounds), static_cast<long long>(n),
                   static_cast<double>(res.rounds) / static_cast<double>(n)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(args, table, "e8_main_theorem");

  const auto fit = stats::fit_loglog(ns, rounds_list);
  bool ratio_decreasing = true;
  for (std::size_t i = 1; i < ns.size(); ++i) {
    if (rounds_list[i] / ns[i] >= rounds_list[i - 1] / ns[i - 1]) {
      ratio_decreasing = false;
    }
  }
  std::cout << "\nGrowth of rounds with n: log-log slope = " << fit.slope
            << " (solo probing is slope 1).\n"
            << "Stretch stays O(1) for every community simultaneously — the "
               "algorithm reconstructs all sub-communities in parallel without "
               "knowing D.\n"
            << "Scale note: at n <= 1024 the Zero Radius leaf thresholds (the "
               "8c ln n / alpha safety constants) exceed the Small Radius part "
               "sizes, so each of the O(log m) distance guesses is still "
               "leaf-dominated and the absolute rounds sit above m. The polylog "
               "shape shows as rounds/m decreasing with n (last column) and as "
               "a sub-linear slope; the asymptotic-regime component is measured "
               "directly in E2, where Zero Radius alone has slope ~0.2.\n";
  ok = ok && fit.slope < 0.95 && ratio_decreasing;
  report.metric("n_max", ns.back());
  report.metric("rounds", rounds_list.back());
  report.metric("loglog_slope", fit.slope);
  return report.finish(ok);
}
