// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E7 — Theorem 6.1: Algorithm RSelect solves Choose Closest with no
// distance bound in O(|V|^2 log n) probes, returning a candidate within
// O(D) of the best.
//
// Sweep |V|; the planted best candidate sits at distance D_best, decoys
// at >= 4x that. Report probes against the quadratic budget and the
// worst output-distance factor.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e7_rselect");
  const auto seed = args.get_u64("seed", 7);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 60));
  const std::size_t m = static_cast<std::size_t>(args.get_u64("m", 1024));
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 1024));
  const core::Params params = core::Params::practical();

  io::Table table("E7: RSelect probes and output quality (Theorem 6.1), m=n=1024",
                  {{"|V|"}, {"D_best"}, {"probes_mean", 0}, {"budget |V|^2 c log n", 0},
                   {"worst_factor", 2}, {"zero_loss_rate", 2}});

  bool ok = true;
  rng::Rng root(seed);
  const double per_pair = std::ceil(params.rs_c * std::log2(static_cast<double>(n)));
  for (std::size_t k : {2, 4, 8, 16}) {
    for (std::size_t d_best : {4, 16}) {
      stats::Summary probes;
      double worst_factor = 0.0;
      std::size_t zero_loss = 0;
      rng::Rng rng = root.split(k, d_best);
      for (std::size_t t = 0; t < trials; ++t) {
        const auto truth = matrix::random_vector(m, rng);
        std::vector<bits::BitVector> cands;
        cands.push_back(matrix::flip_random(truth, d_best, rng));
        for (std::size_t i = 1; i < k; ++i) {
          cands.push_back(
              matrix::flip_random(truth, 4 * d_best + rng.uniform(m / 2), rng));
        }
        rng::Rng prng = rng.split(t);
        const auto res = core::rselect_closest(
            cands, n, [&](std::uint32_t j) { return truth.get(j); }, prng, params);
        probes.add(static_cast<double>(res.probes));
        worst_factor = std::max(
            worst_factor, static_cast<double>(truth.hamming(cands[res.index])) /
                              static_cast<double>(d_best));
        if (res.losses[res.index] == 0) ++zero_loss;
      }
      const double budget =
          static_cast<double>(k * (k - 1) / 2) * per_pair;
      if (probes.max() > budget) ok = false;
      if (worst_factor > 8.0) ok = false;
      table.add_row({static_cast<long long>(k), static_cast<long long>(d_best),
                     probes.mean(), budget, worst_factor,
                     static_cast<double>(zero_loss) / static_cast<double>(trials)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper: O(|V|^2 log n) probes regardless of distances; output within "
               "O(D) of the closest candidate w.h.p.\n";
  return report.finish(ok);
}
