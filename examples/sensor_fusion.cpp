// Sensor fusion — the paper's "tracking dynamic environment by
// unreliable sensors" framing of the interactive model (Section 1).
//
// A field of binary-threshold sensors observes m spatial cells. Sensors
// in the same area see (almost) the same world but each has its own
// calibration quirks — an (alpha, D) community per area. Reading a cell
// costs energy, so each sensor may only sample a few cells itself; the
// base station's billboard shares all readings.
//
// This example exercises the *anytime* driver: the deployment does not
// know how many sensor groups there are or how tight they cluster; it
// just keeps refining until the energy budget runs out, and we snapshot
// the reconstruction quality phase by phase.
//
// Run: ./build/examples/sensor_fusion [--sensors=512] [--cells=512]
#include <cstdio>
#include <iostream>

#include "tmwia/core/tmwia.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"

int main(int argc, char** argv) {
  using namespace tmwia;
  const io::Args args(argc, argv);
  const auto sensors = static_cast<std::size_t>(args.get_u64("sensors", 512));
  const auto cells = static_cast<std::size_t>(args.get_u64("cells", 512));
  const auto budget = args.get_u64("budget", 40000);
  const auto seed = args.get_u64("seed", 13);

  // Three sensor clusters with different noise levels (calibration
  // quirk radius), plus 10% failed/erratic sensors.
  rng::Rng gen(seed);
  auto field = matrix::planted_communities(sensors, cells,
                                           {{0.3, 2}, {0.3, 6}, {0.3, 12}}, gen);
  std::printf("sensor field: %zu sensors x %zu cells; 3 clusters with increasing "
              "calibration noise, %zu erratic sensors\n\n",
              sensors, cells, field.outsiders().size());

  billboard::ProbeOracle readings(field.matrix);
  billboard::Billboard board;

  // Anytime operation: alpha = 1/2, 1/4, ... until the energy budget is
  // spent. No alpha, no D — nothing about the field is assumed.
  const auto res = core::anytime(readings, &board, budget, core::Params::practical(),
                                 rng::Rng(seed + 1));

  io::Table phases("anytime phases (cumulative)",
                   {{"phase alpha", 4}, {"cum rounds"}, {"cum probes"}});
  for (const auto& ph : res.phases) {
    phases.add_row({ph.alpha, static_cast<long long>(ph.rounds),
                    static_cast<long long>(ph.total_probes)});
  }
  phases.print(std::cout);

  io::Table quality("final reconstruction per sensor cluster",
                    {{"cluster"}, {"sensors"}, {"noise D"}, {"worst_err"}, {"stretch", 2}});
  bool ok = true;
  for (std::size_t c = 0; c < field.communities.size(); ++c) {
    const auto& cl = field.communities[c];
    const auto D = field.matrix.subset_diameter(cl);
    const auto err = field.matrix.discrepancy(res.outputs, cl);
    const double stretch = field.matrix.stretch(res.outputs, cl);
    if (stretch > 8.0) ok = false;
    quality.add_row({static_cast<long long>(c), static_cast<long long>(cl.size()),
                     static_cast<long long>(D), static_cast<long long>(err), stretch});
  }
  quality.print(std::cout);

  std::printf("\neach cluster is reconstructed to within a constant multiple of its own\n"
              "calibration noise — noisier clusters get proportionally looser answers,\n"
              "which is exactly the stretch guarantee. %s\n",
              ok ? "(all clusters within stretch 8)" : "(a cluster exceeded stretch 8!)");
  return ok ? 0 : 1;
}
