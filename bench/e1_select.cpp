// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E1 — Theorem 3.2: Algorithm Select solves Choose Closest with at most
// k(D+1) probes and returns the (lexicographically first) closest
// candidate.
//
// Workload: random truth vector, one candidate planted within D, the
// remaining k-1 uniform. Reported per (k, D): mean and max probes, the
// theorem bound, and the fraction of trials returning a truly closest
// candidate.
#include <cstdlib>
#include <iostream>

#include "common.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e1_select");
  const auto seed = args.get_u64("seed", 1);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 100));
  const std::size_t m = static_cast<std::size_t>(args.get_u64("m", 512));

  io::Table table("E1: Select probe cost vs the k(D+1) bound (Theorem 3.2)",
                  {{"k"}, {"D"}, {"probes_mean", 1}, {"probes_max"}, {"bound k(D+1)"},
                   {"exact_rate", 3}});

  bool ok = true;
  rng::Rng root(seed);
  for (std::size_t k : {2, 4, 8, 16, 32, 64}) {
    for (std::size_t D : {0, 2, 8, 32}) {
      stats::Summary probes;
      std::size_t exact = 0;
      rng::Rng rng = root.split(k, D);
      for (std::size_t t = 0; t < trials; ++t) {
        const auto truth = matrix::random_vector(m, rng);
        std::vector<bits::BitVector> cands;
        cands.push_back(matrix::flip_random(truth, rng.uniform(D + 1), rng));
        for (std::size_t i = 1; i < k; ++i) {
          cands.push_back(matrix::random_vector(m, rng));
        }
        const auto res = core::select_closest(
            cands, D, [&](std::uint32_t j) { return truth.get(j); });
        probes.add(static_cast<double>(res.probes));
        std::size_t best = m;
        for (const auto& c : cands) best = std::min(best, truth.hamming(c));
        if (truth.hamming(cands[res.index]) == best) ++exact;

        if (res.probes > k * (D + 1)) ok = false;
      }
      if (exact != trials) ok = false;
      table.add_row({static_cast<long long>(k), static_cast<long long>(D), probes.mean(),
                     static_cast<long long>(probes.max()),
                     static_cast<long long>(k * (D + 1)),
                     static_cast<double>(exact) / static_cast<double>(trials)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper: probes <= k(D+1), output is a closest candidate (deterministic).\n";
  return report.finish(ok);
}
