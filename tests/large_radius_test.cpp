// Integration tests for Algorithm Large Radius (Fig. 5 / Theorem 5.4):
// O(D/alpha) output error for planted communities of large diameter,
// agreement of typical players, and cost scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/core/large_radius.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"
#include "audit_json.hpp"

namespace tmwia::core {
namespace {

// Four pool workers in every test process, so a Large Radius run with
// at least four groups runs them as pool tasks.
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

TEST(LargeRadius, RejectsBadAlpha) {
  matrix::PreferenceMatrix mat(4, 4);
  billboard::ProbeOracle oracle(mat);
  EXPECT_THROW(large_radius(oracle, nullptr, iota_players(4), iota_objects(4), 1.5, 8,
                            Params::practical(), rng::Rng(1)),
               std::invalid_argument);
}

struct LrCase {
  std::size_t n;
  std::size_t m;
  double alpha;
  std::size_t radius;
  double error_factor;  // allowed multiple of D on the output error
  std::uint64_t seed;
};

class LargeRadiusGuarantee : public ::testing::TestWithParam<LrCase> {};

TEST_P(LargeRadiusGuarantee, OutputWithinConstantTimesDOverAlpha) {
  const auto [n, m, alpha, radius, error_factor, seed] = GetParam();
  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, m, {alpha, radius}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);
  ASSERT_GT(D, 0u);

  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  const auto res = large_radius(oracle, &board, iota_players(n), iota_objects(m), alpha, D,
                                Params::practical(), rng::Rng(seed ^ 0x717));

  const auto bound = static_cast<std::size_t>(
      error_factor * static_cast<double>(D) / alpha);
  for (PlayerId p : inst.communities[0]) {
    EXPECT_LE(res.outputs[p].hamming(inst.matrix.row(p)), bound) << "player " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LargeRadiusGuarantee,
                         ::testing::Values(LrCase{256, 512, 0.5, 16, 4.0, 71},
                                           LrCase{256, 512, 0.5, 24, 4.0, 72},
                                           LrCase{512, 1024, 0.5, 32, 4.0, 73},
                                           LrCase{512, 1024, 0.25, 24, 4.0, 74}));

TEST(LargeRadius, TypicalPlayersAgreeOnOutput) {
  // Step 4 ends with all typical players adopting identical candidate
  // indices, so their final vectors coincide w.h.p.
  const std::size_t n = 256;
  const std::size_t m = 512;
  rng::Rng gen(81);
  auto inst = matrix::planted_community(n, m, {0.5, 16}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = large_radius(oracle, nullptr, iota_players(n), iota_objects(m), 0.5, D,
                                Params::practical(), rng::Rng(82));

  const auto& first = res.outputs[inst.communities[0][0]];
  for (PlayerId p : inst.communities[0]) {
    EXPECT_EQ(res.outputs[p], first) << "player " << p;
  }
}

TEST(LargeRadius, DiagnosticsPopulated) {
  const std::size_t n = 256;
  rng::Rng gen(91);
  auto inst = matrix::planted_community(n, n, {0.5, 20}, gen);
  const auto D = inst.matrix.subset_diameter(inst.communities[0]);

  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = large_radius(oracle, nullptr, iota_players(n), iota_objects(n), 0.5, D,
                                Params::practical(), rng::Rng(92));
  EXPECT_GE(res.parts, 1u);
  EXPECT_GE(res.lambda, 1u);
  EXPECT_GE(res.max_candidates, 1u);
  EXPECT_GE(res.player_copies, 1u);
}

TEST(LargeRadius, DeterministicGivenSeed) {
  const std::size_t n = 128;
  rng::Rng gen(95);
  auto inst = matrix::planted_community(n, n, {0.5, 12}, gen);

  billboard::ProbeOracle o1(inst.matrix);
  billboard::ProbeOracle o2(inst.matrix);
  const auto r1 = large_radius(o1, nullptr, iota_players(n), iota_objects(n), 0.5, 24,
                               Params::practical(), rng::Rng(96));
  const auto r2 = large_radius(o2, nullptr, iota_players(n), iota_objects(n), 0.5, 24,
                               Params::practical(), rng::Rng(96));
  EXPECT_EQ(r1.outputs, r2.outputs);
}

// ------------------------------------------------------ concurrent groups

/// Everything a Large Radius run leaves behind.
struct GroupsRun {
  LargeRadiusResult res;
  billboard::ProbeOracle::Ledger ledger;
  std::vector<billboard::Billboard::ChannelDump> posts;
  obs::Snapshot metrics;
};

/// L = 8 groups (D = 64 at n = 256) with every player in 2 of them.
matrix::Instance groups_instance() {
  rng::Rng gen(41);
  return matrix::planted_community(256, 256, {0.25, 8}, gen);
}

/// One Large Radius run on a fresh oracle and board. `serial` attaches
/// a flight recorder, which makes the group order observable and so
/// keeps the groups on the caller, and their Small Radius iterations on
/// the per-part schedule: the reference for the pool run.
GroupsRun run_groups(const matrix::Instance& inst, bool serial,
                     billboard::ProtocolAuditor* auditor = nullptr, std::size_t D = 64,
                     const Params& params = Params::practical()) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  std::ostringstream log;
  obs::FlightRecorder rec(log);
  if (serial) oracle.set_recorder(&rec);
  oracle.set_auditor(auditor);
  GroupsRun run;
  run.res = large_radius(oracle, &board, iota_players(inst.matrix.players()),
                         iota_objects(inst.matrix.objects()), 0.25, D, params, rng::Rng(42));
  run.ledger = oracle.export_ledger();
  run.posts = board.export_posts();
  run.metrics = reg.snapshot();
  reg.set_enabled(false);
  return run;
}

void expect_same_run(const GroupsRun& a, const GroupsRun& b) {
  EXPECT_TRUE(a.res.outputs == b.res.outputs);
  EXPECT_EQ(a.res.parts, b.res.parts);
  EXPECT_EQ(a.res.lambda, b.res.lambda);
  EXPECT_EQ(a.res.max_candidates, b.res.max_candidates);
  EXPECT_EQ(a.res.player_copies, b.res.player_copies);
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

// The groups run as pool tasks through forked ledgers, each group's
// all-leaf Small Radius iterations as three passes inline in its task,
// and leave exactly what the serial group loop leaves — in every run,
// whichever group of a wave finishes first.
TEST(ConcurrentGroups, LargeRadiusMatchesTheSerialRun) {
  ASSERT_TRUE(kPoolSized);
  const auto inst = groups_instance();
  const auto serial = run_groups(inst, true);
  for (int rep = 0; rep < 4; ++rep) {
    const auto pooled = run_groups(inst, false);
    ASSERT_GE(pooled.res.parts, engine::ThreadPool::global().thread_count());
    ASSERT_GE(pooled.res.player_copies, 2u);
    expect_same_run(pooled, serial);
  }
}

// With fewer groups than pool threads (L = 2 at D = 16) the groups stay
// on the caller, where an unrecorded run takes the three passes in
// their all-leaf Small Radius iterations.
TEST(ConcurrentGroups, FewerGroupsThanThreadsMatchTheSerialRun) {
  ASSERT_TRUE(kPoolSized);
  const auto inst = groups_instance();
  const auto serial = run_groups(inst, true, nullptr, 16);
  for (int rep = 0; rep < 2; ++rep) {
    const auto pooled = run_groups(inst, false, nullptr, 16);
    ASSERT_LT(pooled.res.parts, engine::ThreadPool::global().thread_count());
    ASSERT_GT(pooled.res.parts, 1u);
    expect_same_run(pooled, serial);
  }
}

// An attached auditor does not keep the groups serial: its A4 ledger
// takes one player's attempts and successes from several forks at
// once. Without faults every attempt succeeds, so the audited
// successes are the oracle's invocations.
TEST(ConcurrentGroups, AuditedRunIsClean) {
  ASSERT_TRUE(kPoolSized);
  const auto inst = groups_instance();
  billboard::ProtocolAuditor auditor(inst.matrix.players(), inst.matrix.objects());
  const auto audited = run_groups(inst, false, &auditor);
  auditor.verify_invocations(audited.ledger.invocations);
  const auto report = auditor.report();
  EXPECT_TRUE(report.clean()) << audit_json(report);
  EXPECT_EQ(report.probes_audited,
            std::accumulate(audited.ledger.invocations.begin(),
                            audited.ledger.invocations.end(), std::uint64_t{0}));
  expect_same_run(audited, run_groups(inst, true));
}

// With a leaf threshold this low and parts this few, every group's
// Small Radius parts are above the threshold, so the group tasks post
// their internal Zero Radius nodes' outputs while other tasks run. Each
// group posts under its own prefix, and a player of two groups posts
// under both, so no two tasks write the same (channel, player) row:
// the pooled runs leave the serial run's board without ordering a post.
TEST(ConcurrentGroups, GroupsAboveTheLeafThresholdPostUnderTheirOwnPrefixes) {
  ASSERT_TRUE(kPoolSized);
  Params params = Params::practical();
  params.zr_leaf_c = 0.1;
  params.sr_s_mult = 0.01;
  const auto inst = groups_instance();
  const auto serial = run_groups(inst, true, nullptr, 64, params);
  ASSERT_GE(serial.res.parts, engine::ThreadPool::global().thread_count());
  ASSERT_GE(serial.res.player_copies, 2u);

  // Group l's members are the posters of its output channel.
  const auto members = [&](std::size_t l) {
    std::set<PlayerId> out;
    for (const auto& ch : serial.posts) {
      if (ch.channel != "lr/group/" + std::to_string(l)) continue;
      for (const auto& post : ch.posts) out.insert(post.first);
    }
    return out;
  };
  std::map<PlayerId, std::set<std::size_t>> groups_of;  // player -> groups it posted under
  for (std::size_t l = 0; l < serial.res.parts; ++l) {
    const std::string prefix = "lr/group/" + std::to_string(l) + "/sr/";
    const auto in_group = members(l);
    std::size_t channels = 0;
    for (const auto& ch : serial.posts) {
      if (ch.channel.rfind(prefix, 0) != 0) continue;
      ++channels;
      for (const auto& post : ch.posts) {
        EXPECT_EQ(in_group.count(post.first), 1u) << ch.channel << " player " << post.first;
        groups_of[post.first].insert(l);
      }
    }
    EXPECT_GT(channels, 0u) << "group " << l;
  }
  for (const auto& ch : serial.posts) {
    EXPECT_NE(ch.channel.rfind("sr/", 0), 0u) << ch.channel;
  }
  EXPECT_TRUE(std::ranges::any_of(groups_of, [](const auto& e) { return e.second.size() >= 2; }));

  for (int rep = 0; rep < 4; ++rep) {
    expect_same_run(run_groups(inst, false, nullptr, 64, params), serial);
  }
}

}  // namespace
}  // namespace tmwia::core
