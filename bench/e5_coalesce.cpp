// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E5 — Theorem 5.3: Algorithm Coalesce reduces n vectors to at most
// 1/alpha candidates; when an (alpha, D) cluster exists there is a
// unique candidate closest to all of it, within 2D under d-tilde, with
// at most 5D/alpha '?' entries.
#include <iostream>

#include "common.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e5_coalesce");
  const auto seed = args.get_u64("seed", 5);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 50));
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 100));
  const std::size_t m = static_cast<std::size_t>(args.get_u64("m", 512));

  io::Table table("E5: Coalesce output guarantees (Theorem 5.3), n=100 vectors",
                  {{"alpha", 2}, {"D"}, {"|B|_max"}, {"1/alpha bound"}, {"unique_rate", 2},
                   {"max_dtilde"}, {"2D bound"}, {"qmarks_max"}, {"5D/a bound"}});

  bool ok = true;
  rng::Rng root(seed);
  for (double alpha : {0.5, 0.3, 0.2}) {
    for (std::size_t D : {4, 8, 16}) {
      std::size_t max_out = 0, unique_hits = 0, max_dt = 0, max_q = 0;
      rng::Rng rng = root.split(static_cast<std::uint64_t>(alpha * 100), D);
      for (std::size_t t = 0; t < trials; ++t) {
        const auto center = matrix::random_vector(m, rng);
        const auto cluster = static_cast<std::size_t>(alpha * static_cast<double>(n));
        std::vector<bits::BitVector> vs;
        std::vector<std::size_t> cluster_idx;
        for (std::size_t i = 0; i < cluster; ++i) {
          cluster_idx.push_back(vs.size());
          vs.push_back(matrix::flip_random(center, rng.uniform(D / 2 + 1), rng));
        }
        while (vs.size() < n) vs.push_back(matrix::random_vector(m, rng));

        const auto res = core::coalesce(vs, D, cluster);
        max_out = std::max(max_out, res.candidates.size());

        std::size_t close = 0, best = 0;
        for (std::size_t c = 0; c < res.candidates.size(); ++c) {
          bool all = true;
          for (auto i : cluster_idx) {
            if (res.candidates[c].dtilde(vs[i]) > 2 * D) {
              all = false;
              break;
            }
          }
          if (all) {
            ++close;
            best = c;
          }
        }
        if (close == 1) {
          ++unique_hits;
          for (auto i : cluster_idx) {
            max_dt = std::max(max_dt, res.candidates[best].dtilde(vs[i]));
          }
          max_q = std::max(max_q, res.candidates[best].unknown_count());
        }
      }
      const double unique_rate =
          static_cast<double>(unique_hits) / static_cast<double>(trials);
      const auto size_bound = static_cast<std::size_t>(1.0 / alpha);
      const auto q_bound = static_cast<std::size_t>(5.0 * static_cast<double>(D) / alpha);
      if (unique_rate < 1.0 || max_out > size_bound || max_dt > 2 * D || max_q > q_bound) {
        ok = false;
      }
      table.add_row({alpha, static_cast<long long>(D), static_cast<long long>(max_out),
                     static_cast<long long>(size_bound), unique_rate,
                     static_cast<long long>(max_dt), static_cast<long long>(2 * D),
                     static_cast<long long>(max_q), static_cast<long long>(q_bound)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper: |B| <= 1/alpha; unique representative within 2D of every "
               "cluster member; <= 5D/alpha '?' entries; deterministic and probe-free.\n";
  return report.finish(ok);
}
