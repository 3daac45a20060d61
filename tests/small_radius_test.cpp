// Integration tests for Algorithm Small Radius (Fig. 4 / Theorem 4.4):
// the 5D output guarantee for planted (alpha, D) communities and the
// sublinearity of the probing cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"
#include "audit_json.hpp"

namespace tmwia::core {
namespace {

// Four pool threads in every test process, so the passes of an all-leaf
// iteration go to the pool.
const bool kPoolSized = engine::set_global_threads(4);

std::vector<PlayerId> iota_players(std::size_t n) {
  std::vector<PlayerId> p(n);
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

std::vector<std::uint32_t> iota_objects(std::size_t m) {
  std::vector<std::uint32_t> o(m);
  std::iota(o.begin(), o.end(), 0u);
  return o;
}

TEST(SmallRadiusParts, ScalesAsDToTheThreeHalves) {
  Params p;  // paper constants: 100 * D^1.5
  EXPECT_EQ(small_radius_parts(0, p), 1u);
  EXPECT_EQ(small_radius_parts(1, p), 100u);
  EXPECT_EQ(small_radius_parts(4, p), 800u);
  Params q = Params::practical();  // 2 * D^1.5
  EXPECT_EQ(small_radius_parts(4, q), 16u);
}

TEST(SmallRadius, RejectsBadAlpha) {
  matrix::PreferenceMatrix mat(4, 4);
  billboard::ProbeOracle oracle(mat);
  EXPECT_THROW(small_radius(oracle, nullptr, iota_players(4), iota_objects(4), 0.0, 1,
                            Params::practical(), rng::Rng(1), 4, "sr"),
               std::invalid_argument);
}

TEST(SmallRadius, DZeroEquivalentToZeroRadiusPlusSelect) {
  // With D = 0 there is one part per iteration and the guarantee
  // degenerates to exact reconstruction for the community.
  const std::size_t n = 256;
  rng::Rng gen(21);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = small_radius(oracle, nullptr, iota_players(n), iota_objects(n), 0.5, 0,
                                Params::practical(), rng::Rng(22), n, "sr");
  EXPECT_EQ(res.parts, 1u);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(res.outputs[p], inst.centers[0]);
  }
}

struct SrCase {
  std::size_t n;
  std::size_t m;
  double alpha;
  std::size_t radius;  // members flip `radius` coords; diameter <= 2*radius
  std::uint64_t seed;
};

class SmallRadiusGuarantee : public ::testing::TestWithParam<SrCase> {};

TEST_P(SmallRadiusGuarantee, OutputWithinFiveDOfTruth) {
  const auto [n, m, alpha, radius, seed] = GetParam();
  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, m, {alpha, radius}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);
  ASSERT_LE(D, 2 * radius);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = small_radius(oracle, nullptr, iota_players(n), iota_objects(m), alpha,
                                std::max<std::size_t>(D, 1), Params::practical(),
                                rng::Rng(seed ^ 0xabc), n, "sr");

  const auto bound = 5 * std::max<std::size_t>(D, 1);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_LE(res.outputs[p].hamming(inst.matrix.row(p)), bound) << "player " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SmallRadiusGuarantee,
                         ::testing::Values(SrCase{128, 512, 0.5, 1, 31},
                                           SrCase{128, 512, 0.5, 2, 32},
                                           SrCase{256, 1024, 0.5, 3, 33},
                                           SrCase{256, 1024, 0.25, 2, 34},
                                           SrCase{256, 2048, 0.5, 4, 35}));

TEST(SmallRadius, CostMatchesTheoremBoundShape) {
  // Theorem 4.4: the probing rounds are O(K * s * (D + leaf)) where
  // s = Theta(D^{3/2}) and leaf = Theta(log n / (alpha/5)) is the Zero
  // Radius leaf threshold at the reduced frequency. Check the explicit
  // bound with a small constant — this is the m-independent part; the
  // m/n >= 1 regime additionally pays the paper's "factor of m/n".
  const std::size_t n = 512;
  const std::size_t m = 512;
  const double alpha = 0.5;
  const std::size_t radius = 2;
  rng::Rng gen(41);
  auto inst = matrix::planted_community(n, m, {alpha, radius}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto params = Params::practical();
  const auto D = std::max<std::size_t>(1, inst.matrix.subset_diameter(inst.communities[0]));
  const auto res = small_radius(oracle, nullptr, iota_players(n), iota_objects(m), alpha, D,
                                params, rng::Rng(42), n, "sr");

  const auto leaf = zero_radius_leaf_threshold(n, alpha / params.sr_vote_div, params);
  const auto bound = 4 * res.iterations * res.parts * (D + leaf);
  EXPECT_LT(oracle.max_invocations(), bound);
}

TEST(SmallRadius, CheaperThanSoloWhenCommunityIsLarge) {
  // The collaborative win at laptop scale needs a large community
  // (alpha = 1 keeps the alpha/5 leaf threshold small) and tiny D.
  const std::size_t n = 4096;
  const std::size_t m = 4096;
  rng::Rng gen(43);
  auto inst = matrix::planted_community(n, m, {1.0, 1}, gen);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto D = std::max<std::size_t>(1, inst.matrix.subset_diameter(inst.communities[0]));
  (void)small_radius(oracle, nullptr, iota_players(n), iota_objects(m), 1.0, D,
                     Params::practical(), rng::Rng(44), n, "sr");
  // At n = 4096 the crossover has happened but the margin is modest
  // (approximately 1.6x here); the gap widens with n since the cost is
  // polylog while solo is linear (see bench/e4_small_radius).
  EXPECT_LT(oracle.max_invocations(), 3 * m / 4) << "collaboration should beat solo probing";
}

TEST(SmallRadius, DeterministicGivenSeed) {
  const std::size_t n = 128;
  rng::Rng gen(51);
  auto inst = matrix::planted_community(n, 256, {0.5, 2}, gen);

  billboard::ProbeOracle o1(inst.matrix);
  billboard::ProbeOracle o2(inst.matrix);
  const auto r1 = small_radius(o1, nullptr, iota_players(n), iota_objects(256), 0.5, 4,
                               Params::practical(), rng::Rng(52), n, "sr");
  const auto r2 = small_radius(o2, nullptr, iota_players(n), iota_objects(256), 0.5, 4,
                               Params::practical(), rng::Rng(52), n, "sr");
  EXPECT_EQ(r1.outputs, r2.outputs);
}

TEST(SmallRadius, WorksOnObjectSubset) {
  const std::size_t n = 128;
  const std::size_t m = 512;
  rng::Rng gen(61);
  auto inst = matrix::planted_community(n, m, {0.5, 1}, gen);

  std::vector<std::uint32_t> objects;
  for (std::uint32_t o = 0; o < 300; o += 2) objects.push_back(o);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = small_radius(oracle, nullptr, iota_players(n), objects, 0.5, 2,
                                Params::practical(), rng::Rng(62), n, "sr");

  for (PlayerId p : inst.communities[0]) {
    const auto truth = inst.matrix.row(p).project(objects);
    EXPECT_LE(res.outputs[p].hamming(truth), 10u);
  }
}

// ------------------------------------------------------------ schedules

/// Everything a Small Radius run leaves behind.
struct SrRun {
  bool order_free = false;
  SmallRadiusResult res;
  billboard::ProbeOracle::Ledger ledger;
  std::vector<billboard::Billboard::ChannelDump> posts;
  obs::Snapshot metrics;
  std::vector<obs::RecorderEvent> log;  ///< the flight log of a recorded run
};

struct ScheduleCase {
  std::size_t n;
  std::size_t m;
  double alpha;
  std::size_t D;
};

matrix::Instance schedule_instance(const ScheduleCase& c) {
  rng::Rng gen(c.n * 31 + c.D);
  return matrix::planted_community(c.n, c.m, {c.alpha, 1}, gen);
}

/// One Small Radius run over `objects` on a fresh oracle and board.
/// `recorded` attaches a flight recorder, which makes a player's probe
/// order observable and so keeps every iteration on the per-part
/// schedule: the reference for the passes.
SrRun run_sr_over(const matrix::Instance& inst, const std::vector<std::uint32_t>& objects,
                  const ScheduleCase& c, bool recorded, billboard::NoiseModel noise = {},
                  billboard::ProtocolAuditor* auditor = nullptr) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  billboard::ProbeOracle oracle(inst.matrix, noise);
  billboard::Billboard board;
  std::ostringstream log;
  obs::FlightRecorder rec(log);
  if (recorded) oracle.set_recorder(&rec);
  oracle.set_auditor(auditor);
  SrRun run;
  run.order_free = oracle.order_free();
  run.res = small_radius(oracle, &board, iota_players(c.n), objects, c.alpha, c.D,
                         Params::practical(), rng::Rng(c.n + c.D), c.n, "sr");
  run.ledger = oracle.export_ledger();
  run.posts = board.export_posts();
  run.metrics = reg.snapshot();
  reg.set_enabled(false);
  rec.flush();
  std::istringstream in(log.str());
  run.log = obs::read_recorder_log(in);
  return run;
}

/// run_sr_over the first c.m objects.
SrRun run_sr(const matrix::Instance& inst, const ScheduleCase& c, bool recorded,
             billboard::NoiseModel noise = {},
             billboard::ProtocolAuditor* auditor = nullptr) {
  return run_sr_over(inst, iota_objects(c.m), c, recorded, noise, auditor);
}

void expect_same_run(const SrRun& a, const SrRun& b) {
  EXPECT_TRUE(a.res.outputs == b.res.outputs);
  EXPECT_EQ(a.res.parts, b.res.parts);
  EXPECT_EQ(a.res.iterations, b.res.iterations);
  EXPECT_TRUE(a.ledger.invocations == b.ledger.invocations);
  EXPECT_TRUE(a.ledger.charged == b.ledger.charged);
  EXPECT_TRUE(a.ledger.probed == b.ledger.probed);
  EXPECT_TRUE(a.ledger.values == b.ledger.values);
  ASSERT_EQ(a.posts.size(), b.posts.size());
  for (std::size_t i = 0; i < a.posts.size(); ++i) {
    EXPECT_EQ(a.posts[i].channel, b.posts[i].channel);
    EXPECT_TRUE(a.posts[i].posts == b.posts[i].posts) << a.posts[i].channel;
  }
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
}

class SmallRadiusSchedule : public ::testing::TestWithParam<ScheduleCase> {};

// An order-free run of an all-leaf shape takes the three passes; a run
// with a part above the leaf threshold keeps the per-part loop. Either
// way it leaves exactly what the recorded per-part run leaves.
TEST_P(SmallRadiusSchedule, MatchesThePerPartRun) {
  ASSERT_TRUE(kPoolSized);
  const auto c = GetParam();
  const auto inst = schedule_instance(c);
  const auto reference = run_sr(inst, c, true);
  EXPECT_FALSE(reference.order_free);
  for (int rep = 0; rep < 3; ++rep) {
    const auto run = run_sr(inst, c, false);
    EXPECT_TRUE(run.order_free);
    expect_same_run(run, reference);
  }
  // Sticky noise depends on (p, o) alone, so it does not pin the order.
  const auto sticky = billboard::NoiseModel::sticky(0.05, 9);
  const auto sticky_run = run_sr(inst, c, false, sticky);
  EXPECT_TRUE(sticky_run.order_free);
  expect_same_run(sticky_run, run_sr(inst, c, true, sticky));
}

// With the practical constants the leaf threshold is 444 at alpha 0.25
// and 222 at alpha 0.5 (n = 256). So the first three shapes are all-leaf:
// 256 players are below 444, and at alpha 0.5 with D = 3 the 11 parts
// hold about 93 objects each. In the last, the two parts of about 256
// objects are above 222.
INSTANTIATE_TEST_SUITE_P(Shapes, SmallRadiusSchedule,
                         ::testing::Values(ScheduleCase{256, 256, 0.25, 2},
                                           ScheduleCase{256, 256, 0.25, 8},
                                           ScheduleCase{256, 1024, 0.5, 3},
                                           ScheduleCase{256, 512, 0.5, 1}));

// Shapes where Select has a choice to make. Four planted communities,
// each a fifth of the players, give most parts four popular vectors
// (the quorum is ceil(0.2 * 256 / 5) = 11 voters), and with D >= 2 a
// Select probes several coordinates before it decides. The first shape's
// parts hold about 85 objects (two words), the second's about 16 (one
// word), the third's about 93. Every shape is all-leaf (the threshold is
// 555 at alpha 0.2), so the unrecorded runs take the passes and their
// Select memo.
class SmallRadiusScheduleChoices : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(SmallRadiusScheduleChoices, MatchesThePerPartRun) {
  ASSERT_TRUE(kPoolSized);
  const auto c = GetParam();
  rng::Rng gen(c.n * 37 + c.D);
  const auto inst = matrix::planted_communities(c.n, c.m, std::vector<matrix::CommunitySpec>(
                                                              4, {c.alpha, 1}),
                                                gen);
  const auto reference = run_sr(inst, c, true);
  EXPECT_FALSE(reference.order_free);
  // The vote of some part leaves at least three candidates (the
  // recorded run notes each part's vote as sr.part: voters,
  // candidates)...
  std::uint64_t most = 0;
  for (const auto& ev : reference.log) {
    if (ev.kind == obs::RecorderEvent::Kind::kNote && ev.label == "sr.part") {
      EXPECT_EQ(ev.a, c.n);
      most = std::max(most, ev.b);
    }
  }
  EXPECT_GE(most, 3u);
  // ...and some Select probes more than one coordinate.
  EXPECT_GT(reference.metrics.counter("core.select.probes"),
            reference.metrics.counter("core.select.calls"));
  for (int rep = 0; rep < 2; ++rep) {
    const auto run = run_sr(inst, c, false);
    EXPECT_TRUE(run.order_free);
    expect_same_run(run, reference);
  }
  const auto sticky = billboard::NoiseModel::sticky(0.05, 9);
  const auto sticky_run = run_sr(inst, c, false, sticky);
  EXPECT_TRUE(sticky_run.order_free);
  expect_same_run(sticky_run, run_sr(inst, c, true, sticky));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SmallRadiusScheduleChoices,
                         ::testing::Values(ScheduleCase{256, 512, 0.2, 2},
                                           ScheduleCase{256, 256, 0.2, 4},
                                           ScheduleCase{256, 1024, 0.2, 3}));

// Large Radius hands each group a sorted subset of the objects, so an
// iteration's positions are not object ids: the set probe's mask is
// over object ids and the stitch's gather over positions. Half of 700
// objects, four communities (Selects with choices), parts of about 58
// (D = 2) and 22 (D = 4) objects; n = 256 is below the leaf threshold,
// so the unrecorded runs take the passes.
TEST(SmallRadiusSchedule, ObjectSubsetMatchesThePerPartRun) {
  ASSERT_TRUE(kPoolSized);
  rng::Rng gen(71);
  const auto inst = matrix::planted_communities(
      256, 700, std::vector<matrix::CommunitySpec>(4, {0.2, 1}), gen);
  std::vector<std::uint32_t> objects;
  for (std::uint32_t o = 0; o < 700; ++o) {
    if (gen.uniform(2) == 0) objects.push_back(o);
  }
  for (const std::size_t D : {2, 4}) {
    const ScheduleCase c{256, objects.size(), 0.2, D};
    const auto reference = run_sr_over(inst, objects, c, true);
    EXPECT_FALSE(reference.order_free);
    EXPECT_GT(reference.metrics.counter("core.select.probes"),
              reference.metrics.counter("core.select.calls"));
    const auto run = run_sr_over(inst, objects, c, false);
    EXPECT_TRUE(run.order_free);
    expect_same_run(run, reference);
    const auto sticky = billboard::NoiseModel::sticky(0.05, 9);
    expect_same_run(run_sr_over(inst, objects, c, false, sticky),
                    run_sr_over(inst, objects, c, true, sticky));
  }
}

// An attached auditor does not pin the order: the run takes the passes,
// its audit is clean and its A4 ledger matches the oracle's. Without
// faults every attempt succeeds, so the audited successes are the
// oracle's invocations, leaf blocks included.
TEST(SmallRadiusSchedule, AuditedRunTakesThePassesAndIsClean) {
  ASSERT_TRUE(kPoolSized);
  const ScheduleCase c{256, 256, 0.25, 8};
  const auto inst = schedule_instance(c);
  billboard::ProtocolAuditor auditor(c.n, c.m);
  const auto audited = run_sr(inst, c, false, {}, &auditor);
  EXPECT_TRUE(audited.order_free);
  auditor.verify_invocations(audited.ledger.invocations);
  const auto report = auditor.report();
  EXPECT_TRUE(report.clean()) << audit_json(report);
  EXPECT_EQ(report.probes_audited,
            std::accumulate(audited.ledger.invocations.begin(),
                            audited.ledger.invocations.end(), std::uint64_t{0}));
  expect_same_run(audited, run_sr(inst, c, true));
}

}  // namespace
}  // namespace tmwia::core
