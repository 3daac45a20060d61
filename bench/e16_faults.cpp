// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E16 — fault-injection sweep: how much quality do the fault-tolerant
// phases give up as players crash-stop and billboard posts vanish?
//
// The paper's model assumes full lockstep participation; the faults
// subsystem relaxes it. For a planted (alpha=0.5, D=2) community we
// sweep (a) the crash rate with probe failures fixed, (b) the post-drop
// rate with crashes off, and record the stretch of the *surviving*
// typical players plus the fault counters. The gate: survivors keep a
// bounded stretch while up to ~20% of the players die mid-run, and the
// run never throws — graceful degradation, not a cliff.
#include <iostream>

#include "common.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/generators.hpp"

using namespace tmwia;

namespace {

struct Outcome {
  double survivor_stretch = 0.0;
  std::size_t survivors = 0;
  faults::FaultReport report;
};

Outcome run_faulty(bench::BenchReport& report, const matrix::Instance& inst,
                   const faults::FaultPlan& plan, std::size_t D, std::uint64_t seed) {
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  report.attach(oracle, &board);
  faults::FaultInjector injector(plan, inst.matrix.players());
  oracle.set_fault_injector(&injector);

  const auto res = core::find_preferences(oracle, &board, 0.5, D,
                                          core::Params::practical(), rng::Rng(seed));

  Outcome out;
  std::vector<matrix::PlayerId> survivors;
  for (matrix::PlayerId p : inst.communities[0]) {
    if (!injector.is_failed(p)) survivors.push_back(p);
  }
  out.survivors = survivors.size();
  if (!survivors.empty()) {
    out.survivor_stretch = inst.matrix.stretch(res.outputs, survivors);
  }
  out.report = injector.report();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e16_faults");
  const auto seed = args.get_u64("seed", 16);
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 256));

  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, n, {0.5, 2}, gen);
  // With --record, phase summaries get real discrepancy-vs-truth.
  report.record_truth(inst.matrix);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);

  bool ok = true;

  io::Table crash_table(
      "E16a: crash-rate sweep (probe=0.02, retry=3; survivors of the planted community)",
      {{"crash_rate", 2}, {"crashed"}, {"degraded"}, {"orphaned"}, {"survivors"},
       {"stretch", 2}, {"ok"}});
  for (double rate : {0.0, 0.05, 0.1, 0.2}) {
    faults::FaultPlan plan;
    plan.seed = seed + 1;
    plan.crash_rate = rate;
    plan.crash_round_lo = 40;
    plan.crash_round_hi = 400;
    plan.probe_fail_rate = 0.02;
    const auto out = run_faulty(report, inst, plan, D, seed + 2);
    // Gate: survivors stay within a generous constant-stretch envelope
    // (the no-fault practical profile sits well under 4).
    const bool row_ok = out.survivors > 0 && out.survivor_stretch <= 12.0;
    if (!row_ok) ok = false;
    crash_table.add_row({rate, static_cast<long long>(out.report.crashed.size()),
                         static_cast<long long>(out.report.degraded.size()),
                         static_cast<long long>(out.report.orphaned.size()),
                         static_cast<long long>(out.survivors), out.survivor_stretch,
                         static_cast<long long>(row_ok)});
  }
  crash_table.print(std::cout);
  bench::maybe_write_csv(args, crash_table, "e16_crash");

  io::Table drop_table(
      "E16b: post-drop sweep (no crashes; orphan adoption must absorb lost posts)",
      {{"drop_rate", 2}, {"posts_dropped"}, {"orphaned"}, {"stretch", 2}, {"ok"}});
  for (double rate : {0.0, 0.1, 0.25, 0.5}) {
    faults::FaultPlan plan;
    plan.seed = seed + 3;
    plan.post_drop_rate = rate;
    const auto out = run_faulty(report, inst, plan, D, seed + 2);
    const bool row_ok = out.survivor_stretch <= 12.0;
    if (!row_ok) ok = false;
    drop_table.add_row({rate, static_cast<long long>(out.report.posts_dropped),
                        static_cast<long long>(out.report.orphaned.size()),
                        out.survivor_stretch, static_cast<long long>(row_ok)});
  }
  drop_table.print(std::cout);
  bench::maybe_write_csv(args, drop_table, "e16_drop");

  std::cout << "\nCrash-stop and post loss cost rounds (retries, re-votes) and shrink the "
               "quorum, but the survivor stretch stays in the constant regime: quorum "
               "thresholds scale with the survivors and orphaned players re-adopt from "
               "the surviving posts instead of failing the run.\n";
  return report.finish(ok);
}
