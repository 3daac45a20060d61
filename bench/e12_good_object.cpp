// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E12 — the [4] comparator (Awerbuch, Patt-Shamir, Peleg, Tuttle,
// SODA'05), which this paper generalizes: finding ONE commonly liked
// object costs O(m + n log |P|) probes *total* across all players —
// exponentially cheaper per player than reconstructing full preference
// vectors, which is the gap between [4] and Theorem 1.1.
//
// Sweep n (m = 2n): report total probes vs the m + n log n budget and
// vs the naive n*m, plus the spread time (rounds after the first hit).
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "tmwia/core/good_object.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e12_good_object");
  const auto seed = args.get_u64("seed", 12);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 5));

  io::Table table("E12: one-good-object cost ([4]'s O(m + n log n) claim), one shared "
                  "liked object",
                  {{"n"}, {"m"}, {"total_probes", 0}, {"budget m+n*log n", 0},
                   {"naive n*m"}, {"rounds", 0}, {"found_rate", 2}});

  bool ok = true;
  for (std::size_t n : {128, 256, 512, 1024}) {
    const std::size_t m = 2 * n;
    stats::Summary probes, rounds;
    std::size_t found = 0, want = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      rng::Rng gen(seed + t * 31 + n);
      // Only one object is liked by everyone; everything else is junk.
      matrix::PreferenceMatrix mat(n, m);
      const auto shared = static_cast<matrix::ObjectId>(gen.uniform(m));
      for (matrix::PlayerId p = 0; p < n; ++p) mat.set_value(p, shared, true);

      billboard::ProbeOracle oracle(mat);
      report.attach(oracle);
      const auto res = core::good_object(oracle, {}, rng::Rng(seed ^ (t + n)));
      probes.add(static_cast<double>(res.total_probes));
      rounds.add(static_cast<double>(res.rounds));
      want += n;
      for (const auto& f : res.found) {
        if (f.has_value()) ++found;
      }
    }
    const double budget = static_cast<double>(m) + static_cast<double>(n) *
                                                       std::log2(static_cast<double>(n));
    if (probes.mean() > 8.0 * budget) ok = false;
    if (found != want) ok = false;
    table.add_row({static_cast<long long>(n), static_cast<long long>(m), probes.mean(),
                   budget, static_cast<long long>(n * m), rounds.mean(),
                   static_cast<double>(found) / static_cast<double>(want)});
  }
  table.print(std::cout);
  std::cout << "\nPaper context ([4], cited as the closest prior work): a single good "
               "recommendation needs only O(m + n log |P|) probes overall — two to "
               "three orders of magnitude under the naive n*m — while reconstructing "
               "*complete* preference vectors (this paper's problem) needs the full "
               "Zero/Small/Large Radius machinery.\n";
  return report.finish(ok);
}
