// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E13 — robustness to probe noise (the paper's intro: "various
// time-variable factors (such as noise, weather, mood) may create
// diversity as a side effect"). Sticky epsilon-noise turns an
// (alpha, D) community of true vectors into an (alpha, D + ~4*eps*m)
// community of *read* vectors; the claim to check is that feeding the
// noise-inflated D to the machinery restores the distance guarantee —
// i.e. noise is just diversity, exactly the paper's framing.
//
// Sweep eps for Zero Radius (D = 0 assumed, so it must degrade) and for
// Small Radius with inflated D (must stay within 5 * D_eff).
#include <iostream>

#include "common.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/stats/summary.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e13_noise");
  const auto seed = args.get_u64("seed", 13);
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 256));
  const auto params = core::Params::practical();

  io::Table table(
      "E13: sticky probe-noise robustness (exact community, alpha = 1, n = m = 256)",
      {{"eps", 3}, {"D_eff (=4*eps*m+2)"}, {"zr_worst_err"}, {"sr_worst_err"},
       {"5*D_eff bound"}, {"sr_ok"}});

  bool ok = true;
  for (double eps : {0.0, 0.005, 0.01, 0.02, 0.04}) {
    rng::Rng gen(seed + static_cast<std::uint64_t>(eps * 10000));
    auto inst = matrix::planted_community(n, n, {1.0, 1}, gen);

    const auto d_eff = static_cast<std::size_t>(
        2.0 + 4.0 * eps * static_cast<double>(n));

    // Zero Radius assumes D = 0: it fragments under noise but must not
    // collapse (errors stay O(eps * m), not O(m)).
    std::size_t zr_worst = 0;
    {
      billboard::ProbeOracle oracle(inst.matrix,
                                    billboard::NoiseModel::sticky(eps, seed * 3 + 1));
      report.attach(oracle);
      const auto out =
          core::zero_radius_bits(oracle, nullptr, bench::iota_players(n),
                                 bench::iota_objects(n), 1.0, params, rng::Rng(seed + 7));
      for (matrix::PlayerId p = 0; p < n; ++p) {
        zr_worst = std::max(zr_worst, out[p].hamming(inst.matrix.row(p)));
      }
    }

    // Small Radius with the noise-inflated distance bound.
    std::size_t sr_worst = 0;
    {
      billboard::ProbeOracle oracle(inst.matrix,
                                    billboard::NoiseModel::sticky(eps, seed * 3 + 1));
      report.attach(oracle);
      const auto res = core::small_radius(oracle, nullptr, bench::iota_players(n),
                                          bench::iota_objects(n), 1.0, d_eff, params,
                                          rng::Rng(seed + 9), n, "sr");
      for (matrix::PlayerId p = 0; p < n; ++p) {
        sr_worst = std::max(sr_worst, res.outputs[p].hamming(inst.matrix.row(p)));
      }
    }

    const bool sr_ok = sr_worst <= 5 * d_eff;
    if (!sr_ok) ok = false;
    if (zr_worst > 20 * d_eff + 8) ok = false;  // graceful, not collapsed
    table.add_row({eps, static_cast<long long>(d_eff), static_cast<long long>(zr_worst),
                   static_cast<long long>(sr_worst), static_cast<long long>(5 * d_eff),
                   static_cast<long long>(sr_ok)});
  }
  table.print(std::cout);
  std::cout << "\nReading noise as extra diversity and feeding the inflated D keeps the "
               "5D guarantee of Theorem 4.4 — no algorithmic change required, which is "
               "the point of parameterizing by community diameter rather than assuming "
               "a noise model.\n";
  return report.finish(ok);
}
