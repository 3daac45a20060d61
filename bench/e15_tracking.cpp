// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E15 — the intro's "tracking dynamic environment by unreliable
// sensors ... fall under this interactive framework". The hidden
// preferences drift between epochs (the community moves as a block plus
// per-player jitter); at each epoch the players re-run the interactive
// algorithm and we compare:
//
//  * re-run tmwia        — fresh reconstruction each epoch;
//  * stale estimate      — keep epoch 0's answer forever (what a
//    non-interactive, train-once recommender does as the world moves).
//
// The claim exercised: the interactive model has no trouble with
// drift because probing always reads the *current* truth — the stale
// baseline's error grows linearly in the accumulated drift while the
// re-run error stays at O(D) every epoch.
#include <iostream>

#include "common.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"

using namespace tmwia;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e15_tracking");
  const auto seed = args.get_u64("seed", 15);
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 256));
  const std::size_t epochs = static_cast<std::size_t>(args.get_u64("epochs", 5));
  const std::size_t center_flips = static_cast<std::size_t>(args.get_u64("drift", 12));
  const auto params = core::Params::practical();

  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, n, {0.5, 1}, gen);
  const auto& community = inst.communities[0];

  io::Table table("E15: tracking a drifting environment (community alpha=1/2, drift 12 "
                  "coords/epoch)",
                  {{"epoch"}, {"D"}, {"rerun_worst_err"}, {"stale_worst_err"},
                   {"accumulated_drift"}});

  std::vector<bits::BitVector> stale;
  bool ok = true;
  std::size_t max_D = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) {
      matrix::drift(inst, center_flips, 0, gen);
    }
    const auto D = std::max<std::size_t>(1, inst.matrix.subset_diameter(community));
    max_D = std::max(max_D, D);

    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    const auto run = core::find_preferences_unknown_d(oracle, nullptr, 0.5, params,
                                                      rng::Rng(seed ^ (epoch * 101)));
    if (epoch == 0) stale = run.outputs;

    const auto rerun_err = inst.matrix.discrepancy(run.outputs, community);
    const auto stale_err = inst.matrix.discrepancy(stale, community);
    if (rerun_err > 5 * D) ok = false;
    table.add_row({static_cast<long long>(epoch), static_cast<long long>(D),
                   static_cast<long long>(rerun_err), static_cast<long long>(stale_err),
                   static_cast<long long>(epoch * center_flips)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(args, table, "e15_tracking");
  report.metric("max_D", static_cast<double>(max_D));

  std::cout << "\nThe interactive model reads current truth, so re-running keeps every "
               "epoch's error at O(D); the frozen epoch-0 estimate decays at the drift "
               "rate — the gap a train-once non-interactive system cannot close.\n";
  return report.finish(ok);
}
