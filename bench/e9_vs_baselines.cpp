// tmwia-lint: allow-file(raw-io) bench main: prints its experiment table to stdout.
// E9 — the paper's positioning claim (Sections 1-2): provable
// collaborative filtering without assumptions on the preference matrix.
//
//  (a) Low-rank control: k clean types, tiny noise — the regime the
//      SVD line of work [5, 6, 14, 15] assumes, where a sampled
//      low-rank reconstruction is accurate.
//  (b) Adversarial diversity: many types, per-user disagreement, noise
//      players — a flat-spectrum matrix. The SVD reconstruction
//      collapses; tmwia still recovers every community to O(D).
//
// The one-shot baselines (budget-capped solo, kNN, SVD, majority) get a
// fixed budget of m/8 probes per player. tmwia's cost is reported as
// measured: at laptop sizes its absolute rounds exceed m (the safety
// constants dominate — see E8's scale note), but it is the only method
// here with a *guarantee* independent of the matrix, and its cost
// grows polylog in n (E2/E8) while every baseline's budget-to-accuracy
// scales linearly with m.
#include <iostream>

#include "common.hpp"
#include "tmwia/baselines/baselines.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/partition.hpp"

using namespace tmwia;

namespace {

struct Row {
  std::string name;
  std::uint64_t rounds;
  double mean_err;
  double worst_community_mean;
};

double worst_community_mean_error(const std::vector<bits::BitVector>& outputs,
                                  const matrix::Instance& inst) {
  double worst = 0.0;
  for (const auto& c : inst.communities) {
    if (c.empty()) continue;
    worst = std::max(worst, tmwia::bench::mean_error(outputs, inst.matrix, c));
  }
  return worst;
}

double overall_mean_error(const std::vector<bits::BitVector>& outputs,
                          const matrix::Instance& inst) {
  std::size_t total = 0;
  for (matrix::PlayerId p = 0; p < inst.matrix.players(); ++p) {
    total += outputs[p].hamming(inst.matrix.row(p));
  }
  return static_cast<double>(total) / static_cast<double>(inst.matrix.players());
}

/// "Go it alone" under a budget: probe `budget` random objects, output
/// 0 for the rest — what an uncooperative player can do in that time.
baselines::BaselineResult capped_solo(billboard::ProbeOracle& oracle, std::size_t budget,
                                      rng::Rng rng) {
  const std::size_t n = oracle.players();
  const std::size_t m = oracle.objects();
  baselines::BaselineResult res;
  res.outputs.assign(n, bits::BitVector(m));
  for (matrix::PlayerId p = 0; p < n; ++p) {
    rng::Rng prng = rng.split(p);
    for (auto o : rng::sample_without_replacement(m, std::min(budget, m), prng)) {
      if (oracle.probe(p, o)) res.outputs[p].set(o, true);
    }
  }
  res.rounds = oracle.max_invocations();
  res.total_probes = oracle.total_invocations();
  return res;
}

std::vector<Row> run_all(bench::BenchReport& report, const matrix::Instance& inst,
                         double alpha, std::size_t budget, std::uint64_t seed) {
  std::vector<Row> rows;
  const auto params = core::Params::practical();
  const std::size_t m = inst.matrix.objects();

  {
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    const auto res =
        core::find_preferences_unknown_d(oracle, nullptr, alpha, params, rng::Rng(seed));
    rows.push_back({"tmwia (unknown D)", res.rounds, overall_mean_error(res.outputs, inst),
                    worst_community_mean_error(res.outputs, inst)});
  }
  {
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    const auto res = capped_solo(oracle, budget, rng::Rng(seed + 4));
    rows.push_back({"solo (budget-capped)", res.rounds,
                    overall_mean_error(res.outputs, inst),
                    worst_community_mean_error(res.outputs, inst)});
  }
  {
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    baselines::KnnParams kp;
    kp.probes_per_player = budget;
    kp.neighbours = 8;
    const auto res = baselines::sampled_knn(oracle, kp, rng::Rng(seed + 1));
    rows.push_back({"kNN (budget)", res.rounds, overall_mean_error(res.outputs, inst),
                    worst_community_mean_error(res.outputs, inst)});
  }
  {
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    baselines::SvdParams sp;
    sp.sample_rate = static_cast<double>(budget) / static_cast<double>(m);
    // Fixed constant rank budget: the related work assumes a constant
    // number of canonical types with a spectral gap. Workload (a) is
    // built to satisfy that (4 types); workload (b) violates it, and
    // nothing in a gapless spectrum tells the practitioner what rank
    // to use instead.
    sp.rank = 4;
    const auto res = baselines::svd_recommender(oracle, sp, rng::Rng(seed + 2));
    rows.push_back({"SVD (budget)", res.rounds, overall_mean_error(res.outputs, inst),
                    worst_community_mean_error(res.outputs, inst)});
  }
  {
    billboard::ProbeOracle oracle(inst.matrix);
    report.attach(oracle);
    const auto res = baselines::global_majority(oracle, budget, rng::Rng(seed + 3));
    rows.push_back({"global majority (budget)", res.rounds,
                    overall_mean_error(res.outputs, inst),
                    worst_community_mean_error(res.outputs, inst)});
  }
  return rows;
}

void print_rows(const std::string& title, const std::vector<Row>& rows, std::size_t m) {
  io::Table table(title, {{"algorithm"}, {"rounds"}, {"mean_err", 1},
                          {"worst_community_mean_err", 1}, {"err_per_object_pct", 1}});
  for (const auto& r : rows) {
    table.add_row({r.name, static_cast<long long>(r.rounds), r.mean_err,
                   r.worst_community_mean,
                   100.0 * r.worst_community_mean / static_cast<double>(m)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  bench::BenchReport report(args, "e9_vs_baselines");
  const auto seed = args.get_u64("seed", 9);
  const std::size_t n = static_cast<std::size_t>(args.get_u64("n", 512));
  const std::size_t m = static_cast<std::size_t>(args.get_u64("m", 512));
  const std::size_t budget = m / 8;

  // (a) The SVD-friendly control.
  rng::Rng gen_a(seed);
  const auto control = matrix::low_rank_model(n, m, 4, 0.005, gen_a);
  const auto rows_a = run_all(report, control, 0.2, budget, seed + 100);
  print_rows("E9a: low-rank control (4 clean types, 0.5% noise); one-shot budget m/8",
             rows_a, m);

  // (b) Adversarial diversity: 8 communities with internal
  // disagreement, 25% noise players.
  rng::Rng gen_b(seed + 1);
  const auto adversarial = matrix::adversarial_diversity(n, m, 8, 6, 0.25, gen_b);
  std::size_t d_max = 0;
  for (const auto& c : adversarial.communities) {
    d_max = std::max(d_max, adversarial.matrix.subset_diameter(c));
  }
  const auto rows_b = run_all(report, adversarial, 0.09, budget, seed + 200);
  print_rows("E9b: adversarial diversity (8 communities, radius 6, 25% noise, D_max=" +
                 std::to_string(d_max) + "); one-shot budget m/8",
             rows_b, m);

  // Shape checks (Section 2's qualitative claims):
  //  1. In its own regime (a) the SVD baseline is accurate...
  const bool svd_fine_on_control = rows_a[3].worst_community_mean < 25.0;
  //  2. ...but collapses under adversarial diversity,
  const bool svd_breaks = rows_b[3].worst_community_mean >
                          10.0 * static_cast<double>(std::max<std::size_t>(d_max, 1));
  //  3. while tmwia stays within O(D) on every community with no
  //     assumption change,
  const bool tmwia_holds = rows_b[0].worst_community_mean <=
                           2.0 * static_cast<double>(std::max<std::size_t>(d_max, 1));
  //  4. and uncooperative probing at the same one-shot budget leaves
  //     ~3/4 of the row unknown.
  const bool solo_capped_bad = rows_b[1].worst_community_mean > 100.0;

  const bool ok = svd_fine_on_control && svd_breaks && tmwia_holds && solo_capped_bad;
  report.metric("tmwia_worst_mean", rows_b[0].worst_community_mean);
  report.metric("svd_worst_mean", rows_b[3].worst_community_mean);
  std::cout << "\nPaper (Sections 1-2): previous provable approaches either restrict the "
               "matrix (SVD gap, near-orthogonal types, tiny noise) or pay polynomial "
               "cost; tmwia achieves constant stretch under unrestricted diversity.\n"
            << "Shape checks: SVD fine on (a): " << svd_fine_on_control
            << ", SVD collapses on (b): " << svd_breaks
            << ", tmwia O(D) on (b): " << tmwia_holds
            << ", capped solo fails: " << solo_capped_bad << ".\n"
            << "kNN is reported for completeness: interactive and assumption-free like "
               "tmwia, it can be accurate here but offers no worst-case guarantee and "
               "its budget-to-accuracy scales linearly with m (polynomial overhead), "
               "which is the gap Theorem 1.1 closes.\n";
  return report.finish(ok);
}
