// Tests for the billboard module: probe accounting semantics (the cost
// model of Section 1.1) and channel/vote aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "audit_json.hpp"
#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/partition.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::billboard {
namespace {

matrix::PreferenceMatrix small_matrix() {
  matrix::PreferenceMatrix m(3, 4);
  m.row(0) = bits::BitVector::from_string("0101");
  m.row(1) = bits::BitVector::from_string("0011");
  m.row(2) = bits::BitVector::from_string("1111");
  return m;
}

TEST(ProbeOracle, ProbeReturnsTruth) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  EXPECT_FALSE(o.probe(0, 0));
  EXPECT_TRUE(o.probe(0, 1));
  EXPECT_TRUE(o.probe(2, 3));
}

TEST(ProbeOracle, InvocationsCountEveryCall) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  o.probe(0, 1);
  o.probe(0, 1);
  o.probe(0, 2);
  EXPECT_EQ(o.invocations(0), 3u);
  EXPECT_EQ(o.export_ledger().charged[0], 2u);  // (0,1) charged once
  EXPECT_EQ(o.invocations(1), 0u);
}

TEST(ProbeOracle, TotalsAndMax) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  o.probe(0, 0);
  o.probe(0, 1);
  o.probe(1, 0);
  EXPECT_EQ(o.total_invocations(), 3u);
  EXPECT_EQ(o.total_charged(), 3u);
  EXPECT_EQ(o.max_invocations(), 2u);
}

TEST(ProbeOracle, RoundsSinceSnapshot) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  o.probe(0, 0);
  const auto snap = o.snapshot();
  o.probe(1, 0);
  o.probe(1, 1);
  o.probe(2, 0);
  EXPECT_EQ(o.rounds_since(snap), 2u);  // player 1 probed twice
}

TEST(ProbeOracle, ProbedRecordIsPublic) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  EXPECT_FALSE(o.probed_mask(1).get(2));
  EXPECT_THROW((void)o.probed_value(1, 2), std::logic_error);
  o.probe(1, 2);
  EXPECT_TRUE(o.probed_mask(1).get(2));
  EXPECT_TRUE(o.probed_value(1, 2));
}

TEST(ProbeOracle, OutOfRangeThrows) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  EXPECT_THROW(o.probe(3, 0), std::out_of_range);
  EXPECT_THROW(o.probe(0, 4), std::out_of_range);
}

TEST(ProbeOracle, ConcurrentProbesByDistinctPlayers) {
  rng::Rng rng(1);
  const auto inst = matrix::uniform_random(64, 256, rng);
  ProbeOracle o(inst.matrix);
  // Grain 1: a chunk per player, so the loop reaches the pool.
  engine::parallel_for(
      0, 64,
      [&](std::size_t p) {
        for (std::uint32_t j = 0; j < 256; ++j) {
          (void)o.probe(static_cast<matrix::PlayerId>(p), j);
        }
      },
      1);
  EXPECT_EQ(o.total_invocations(), 64u * 256u);
  EXPECT_EQ(o.max_invocations(), 256u);
}

// A fork is a task-local ledger: only its members may probe through it.
TEST(ProbeOracle, ForkRejectsNonMembers) {
  const auto m = small_matrix();
  ProbeOracle o(m);
  const std::vector<PlayerId> members{0, 2};
  auto fork = o.fork(members);
  EXPECT_TRUE(fork.probe(2, 3));
  EXPECT_THROW((void)fork.probe(1, 3), std::logic_error);
  const std::vector<ObjectId> objs{0, 1};
  bits::BitVector out(objs.size());
  EXPECT_THROW(fork.probe_block(1, objs, out), std::logic_error);
  EXPECT_THROW((void)fork.probe(3, 0), std::out_of_range);
  EXPECT_THROW((void)fork.probe(0, 4), std::out_of_range);
  // The fork charged only itself.
  EXPECT_EQ(fork.invocations(2), 1u);
  EXPECT_EQ(o.total_invocations(), 0u);
}

TEST(ProbeOracle, ForkNeedsOrderFreeReads) {
  const auto m = small_matrix();
  ProbeOracle faulted(m);
  faults::FaultInjector injector(faults::FaultPlan{}, m.players());
  faulted.set_fault_injector(&injector);
  EXPECT_FALSE(faulted.forkable());
  EXPECT_THROW((void)faulted.fork(std::vector<PlayerId>{0}), std::logic_error);
  ProbeOracle sticky(m, NoiseModel::sticky(0.1, 3));
  EXPECT_TRUE(sticky.forkable());
  const auto fork = sticky.fork(std::vector<PlayerId>{0});
  EXPECT_FALSE(fork.forkable());
  EXPECT_THROW((void)fork.fork(std::vector<PlayerId>{0}), std::logic_error);
}

void expect_same_ledger(const ProbeOracle& a, const ProbeOracle& b) {
  const auto la = a.export_ledger();
  const auto lb = b.export_ledger();
  EXPECT_EQ(la.invocations, lb.invocations);
  EXPECT_EQ(la.charged, lb.charged);
  EXPECT_EQ(la.probed, lb.probed);
  EXPECT_EQ(la.values, lb.values);
}

// Two tasks share player 1 and probe disjoint objects, as two Large
// Radius groups do. Joined in task order, their forks leave the ledger
// the serial run leaves, whichever task finished first.
TEST(ProbeOracle, JoinedForksEqualTheSerialLedger) {
  rng::Rng rng(5);
  const auto inst = matrix::uniform_random(4, 64, rng);
  const NoiseModel noise = NoiseModel::sticky(0.2, 9);
  const std::vector<PlayerId> members_a{0, 1};
  const std::vector<PlayerId> members_b{1, 2};
  const std::vector<ObjectId> objs_a{0, 1, 2, 3, 40, 41};
  const std::vector<ObjectId> objs_b{10, 11, 12, 50};
  const auto task = [](ProbeOracle& o, const std::vector<PlayerId>& members,
                       const std::vector<ObjectId>& objs) {
    bits::BitVector row(objs.size());
    for (const auto p : members) {
      o.probe_block(p, objs, row);
      (void)o.probe(p, objs.front());  // a re-probe charges no new object
    }
  };
  // Player 1 probed object 0 before the tasks: the fork charges it
  // again, the join must not.
  ProbeOracle serial(inst.matrix, noise);
  (void)serial.probe(1, 0);
  task(serial, members_a, objs_a);
  task(serial, members_b, objs_b);

  for (const bool b_first : {false, true}) {
    ProbeOracle o(inst.matrix, noise);
    (void)o.probe(1, 0);
    auto fork_a = o.fork(members_a);
    auto fork_b = o.fork(members_b);
    if (b_first) {
      task(fork_b, members_b, objs_b);
      task(fork_a, members_a, objs_a);
    } else {
      task(fork_a, members_a, objs_a);
      task(fork_b, members_b, objs_b);
    }
    o.join(fork_a);
    o.join(fork_b);
    expect_same_ledger(serial, o);
  }
  EXPECT_THROW(serial.join(serial), std::invalid_argument);
}

/// The objects of the set-probe tests, in a report order that is not
/// object order: word boundaries on both sides, then a shuffled random
/// subset of the rest.
std::vector<ObjectId> set_probe_objects(std::size_t m, rng::Rng& rng) {
  std::vector<ObjectId> objs = {130, 5, 64, 63, 199, 0, 127, 128, 70};
  for (ObjectId o = 0; o < m; ++o) {
    if (std::find(objs.begin(), objs.end(), o) == objs.end() && rng.uniform(3) == 0) {
      objs.push_back(o);
    }
  }
  rng::shuffle(objs, rng);
  return objs;
}

/// Player p probes `objs` through probe_set on `by_set` and through
/// probe_block on `by_block`: the rows must agree.
void expect_same_rows(ProbeOracle& by_set, ProbeOracle& by_block, PlayerId p,
                      const std::vector<ObjectId>& objs) {
  const ProbeOracle::ObjectSet set(by_set, objs);
  bits::BitVector got(objs.size());
  bits::BitVector want(objs.size());
  by_set.probe_set(p, set, got);
  by_block.probe_block(p, objs, want);
  EXPECT_EQ(got, want) << "player " << p;
}

// probe_set keeps the ledger in words: on twin oracles it leaves what
// probe_block leaves over the same objects in the same order — ledgers,
// rows and the auditor's report — on a fresh oracle, after some of the
// objects were probed (charged counts only first probes), under sticky
// noise and with an auditor, inside a round too.
TEST(ProbeOracle, SetProbeMatchesProbeBlock) {
  rng::Rng rng(17);
  const auto inst = matrix::uniform_random(6, 200, rng);
  const auto objs = set_probe_objects(200, rng);
  for (const bool noisy : {false, true}) {
    for (const bool audited : {false, true}) {
      SCOPED_TRACE(std::string(noisy ? "sticky noise" : "no noise") +
                   (audited ? ", audited" : ""));
      const NoiseModel noise = noisy ? NoiseModel::sticky(0.3, 4) : NoiseModel{};
      ProbeOracle by_set(inst.matrix, noise);
      ProbeOracle by_block(inst.matrix, noise);
      ProtocolAuditor set_audit(by_set.players(), by_set.objects());
      ProtocolAuditor block_audit(by_block.players(), by_block.objects());
      if (audited) {
        by_set.set_auditor(&set_audit);
        by_block.set_auditor(&block_audit);
      }
      expect_same_rows(by_set, by_block, 0, objs);
      // Player 1 probed some of the objects, and one outside them.
      for (const ObjectId o : {5U, 64U, 199U, 150U, objs.back()}) {
        EXPECT_EQ(by_set.probe(1, o), by_block.probe(1, o));
      }
      const auto charged_before = by_set.export_ledger().charged[1];
      std::uint64_t first_probes = 0;
      for (const auto o : objs) first_probes += by_set.probed_mask(1).get(o) ? 0 : 1;
      EXPECT_LT(first_probes, objs.size());
      expect_same_rows(by_set, by_block, 1, objs);
      EXPECT_EQ(by_set.export_ledger().charged[1] - charged_before, first_probes);
      // A repeat charges nothing and reads the same values.
      expect_same_rows(by_set, by_block, 1, objs);
      expect_same_rows(by_set, by_block, 5, {objs.begin(), objs.begin() + 3});
      if (audited) {
        set_audit.begin_round(0);
        block_audit.begin_round(0);
        expect_same_rows(by_set, by_block, 2, {objs.begin(), objs.begin() + 4});
        set_audit.end_round();
        block_audit.end_round();
      }
      expect_same_ledger(by_set, by_block);
      EXPECT_EQ(by_set.export_ledger().charged[1], by_set.probed_mask(1).count_ones());
      if (audited) {
        set_audit.verify_invocations(by_set.snapshot());
        block_audit.verify_invocations(by_block.snapshot());
        EXPECT_FALSE(set_audit.report().clean());  // the round's double probes
        EXPECT_EQ(audit_json(set_audit.report()), audit_json(block_audit.report()));
      }
    }
  }
}

// On a fork, a member's set probe is its probe_block; a non-member and
// an out-of-range player get probe_block's exception types and leave
// every ledger, the row and the audit as they were.
TEST(ProbeOracle, SetProbeOnAForkMatchesProbeBlock) {
  rng::Rng rng(23);
  const auto inst = matrix::uniform_random(5, 200, rng);
  const auto objs = set_probe_objects(200, rng);
  const NoiseModel noise = NoiseModel::sticky(0.2, 8);
  ProbeOracle set_parent(inst.matrix, noise);
  ProbeOracle block_parent(inst.matrix, noise);
  ProtocolAuditor set_audit(set_parent.players(), set_parent.objects());
  ProtocolAuditor block_audit(block_parent.players(), block_parent.objects());
  set_parent.set_auditor(&set_audit);
  block_parent.set_auditor(&block_audit);
  const std::vector<PlayerId> members{1, 3};
  auto by_set = set_parent.fork(members);
  auto by_block = block_parent.fork(members);
  expect_same_rows(by_set, by_block, 3, objs);

  // The set is built from the parent; a fork shares its objects.
  const ProbeOracle::ObjectSet set(set_parent, objs);
  const auto ledger = by_set.export_ledger();
  const auto audit = audit_json(set_audit.report());
  bits::BitVector out(objs.size(), true);
  const bits::BitVector untouched = out;
  EXPECT_THROW(by_set.probe_set(2, set, out), std::logic_error);
  EXPECT_THROW(by_block.probe_block(2, objs, out), std::logic_error);
  EXPECT_THROW(by_set.probe_set(5, set, out), std::out_of_range);
  EXPECT_THROW(by_block.probe_block(5, objs, out), std::out_of_range);
  EXPECT_THROW(set_parent.probe_set(5, set, out), std::out_of_range);
  EXPECT_EQ(out, untouched);
  const auto after = by_set.export_ledger();
  EXPECT_EQ(after.invocations, ledger.invocations);
  EXPECT_EQ(after.charged, ledger.charged);
  EXPECT_EQ(after.probed, ledger.probed);
  EXPECT_EQ(after.values, ledger.values);
  EXPECT_EQ(audit_json(set_audit.report()), audit);

  expect_same_rows(by_set, by_block, 1, objs);
  expect_same_ledger(by_set, by_block);
  set_parent.join(by_set);
  block_parent.join(by_block);
  expect_same_ledger(set_parent, block_parent);
  EXPECT_EQ(audit_json(set_audit.report()), audit_json(block_audit.report()));
  // A set's objects are checked once, when it is built.
  EXPECT_THROW((void)ProbeOracle::ObjectSet(set_parent, std::vector<ObjectId>{3, 200}),
               std::out_of_range);
}

// ------------------------------------------------------------------ Billboard

/// Posts across every channel, as a checkpoint exports them.
std::size_t post_count(const Billboard& b) {
  std::size_t n = 0;
  for (const auto& ch : b.export_posts()) n += ch.posts.size();
  return n;
}

TEST(Billboard, PostAndPopular) {
  Billboard b;
  const auto v1 = bits::BitVector::from_string("0101");
  const auto v2 = bits::BitVector::from_string("1111");
  b.post("ch", 0, v1);
  b.post("ch", 1, v1);
  b.post("ch", 2, v2);

  const auto pop2 = b.popular("ch", 2);
  ASSERT_EQ(pop2.size(), 1u);
  EXPECT_EQ(pop2[0].vec, v1);
  EXPECT_EQ(pop2[0].votes, 2u);

  const auto pop1 = b.popular("ch", 1);
  EXPECT_EQ(pop1.size(), 2u);
  // lexicographic order: 0101 < 1111
  EXPECT_EQ(pop1[0].vec, v1);
}

TEST(Billboard, RepostOverwrites) {
  Billboard b;
  b.post("ch", 0, bits::BitVector::from_string("0000"));
  b.post("ch", 0, bits::BitVector::from_string("1111"));
  const auto pop = b.popular("ch", 1);
  ASSERT_EQ(pop.size(), 1u);
  EXPECT_EQ(pop[0].vec.to_string(), "1111");
  EXPECT_EQ(b.posters("ch"), 1u);

  // An in-place overwrite after a read must invalidate the tally memo.
  b.post("ch", 1, bits::BitVector::from_string("1111"));
  ASSERT_EQ(b.popular("ch", 2).size(), 1u);
  b.post("ch", 0, bits::BitVector::from_string("0011"));
  EXPECT_TRUE(b.popular("ch", 2).empty());
  const auto after = b.popular("ch", 1);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].vec.to_string(), "0011");
  EXPECT_EQ(after[1].vec.to_string(), "1111");
  EXPECT_EQ(b.posters("ch"), 2u);
}

using Posts = std::vector<std::pair<matrix::PlayerId, bits::BitVector>>;

// Rows are stored in first-post order, but every listing is by player.
TEST(Billboard, ListingsAreByPlayerNotPostOrder) {
  Billboard b;
  b.post("ch", 9, bits::BitVector::from_string("1001"));
  b.post("ch", 2, bits::BitVector::from_string("0010"));
  b.post("ch", 5, bits::BitVector::from_string("0101"));
  b.post("ch", 2, bits::BitVector::from_string("110"));  // a different width
  const Posts want{{2, bits::BitVector::from_string("110")},
                   {5, bits::BitVector::from_string("0101")},
                   {9, bits::BitVector::from_string("1001")}};

  const auto dump = b.export_posts();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].channel, "ch");
  EXPECT_EQ(dump[0].posts, want);
  EXPECT_TRUE(b.has_posted("ch", 5));
  EXPECT_FALSE(b.has_posted("ch", 4));
  EXPECT_FALSE(b.has_posted("ch", 10));
  EXPECT_EQ(post_count(b), 3u);
}

TEST(Billboard, RestoredPostsOverwriteInPlace) {
  Billboard b;
  b.post("a", 3, bits::BitVector::from_string("11"));
  b.post("a", 1, bits::BitVector::from_string("01"));
  b.post("b", 0, bits::BitVector::from_string("1"));

  Billboard restored;
  restored.restore_posts(b.export_posts());
  EXPECT_EQ(restored.posters("a"), 2u);
  restored.post("a", 3, bits::BitVector::from_string("00"));

  const auto dump = restored.export_posts();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].channel, "a");
  EXPECT_EQ(dump[0].posts, (Posts{{1, bits::BitVector::from_string("01")},
                                  {3, bits::BitVector::from_string("00")}}));
  EXPECT_EQ(dump[1].channel, "b");
  EXPECT_EQ(dump[1].posts, (Posts{{0, bits::BitVector::from_string("1")}}));
  EXPECT_EQ(restored.posters("a"), 2u);
}

TEST(Billboard, MissingChannelEmpty) {
  Billboard b;
  EXPECT_TRUE(b.popular("nope", 1).empty());
  EXPECT_EQ(b.posters("nope"), 0u);
}

TEST(Billboard, ChannelsIndependent) {
  Billboard b;
  b.post("a", 0, bits::BitVector(4));
  b.post("b", 0, bits::BitVector(8));
  EXPECT_EQ(b.posters("a"), 1u);
  EXPECT_EQ(b.posters("b"), 1u);
  EXPECT_EQ(post_count(b), 2u);
}

TEST(Tally, GroupsByEqualityAndThreshold) {
  std::vector<bits::BitVector> posts{
      bits::BitVector::from_string("01"), bits::BitVector::from_string("01"),
      bits::BitVector::from_string("10"), bits::BitVector::from_string("11"),
      bits::BitVector::from_string("01")};
  const auto t = tally(posts, 2);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].vec.to_string(), "01");
  EXPECT_EQ(t[0].votes, 3u);

  const auto all = tally(posts, 1);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].vec.to_string(), "01");  // lexicographic order
  EXPECT_EQ(all[1].vec.to_string(), "10");
  EXPECT_EQ(all[2].vec.to_string(), "11");
}

TEST(Tally, EmptyPosts) { EXPECT_TRUE(tally({}, 1).empty()); }

/// A 128-bit row other than `a` with a.hash() (FNV-1a over the words,
/// seeded by the size): the second word cancels the first's difference.
bits::BitVector hash_twin(const bits::BitVector& a) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const std::uint64_t h0 = 1469598103934665603ull ^ (128 * 0x9e3779b97f4a7c15ull);
  const std::uint64_t w0 = a.words()[0] ^ 0x5a5aull;
  bits::BitVector b(128);
  b.set_word(0, w0);
  b.set_word(1, a.words()[1] ^ ((h0 ^ a.words()[0]) * kPrime) ^ ((h0 ^ w0) * kPrime));
  return b;
}

// The packed tally groups rows as tally() does, and its map sends each
// row to a distinct row equal to it: on one-word rows (grouped by their
// word), on wider rows (grouped by hash), and on distinct rows that
// share a hash run.
TEST(Tally, PackedRowsGroupAsTally) {
  rng::Rng gen(77);
  for (const std::size_t width : {1, 5, 63, 64, 65, 128, 200}) {
    std::vector<bits::BitVector> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(matrix::random_vector(width, gen));
    if (width == 128) {
      pool.push_back(hash_twin(pool[0]));
      ASSERT_EQ(pool.back().hash(), pool[0].hash());
      ASSERT_FALSE(pool.back() == pool[0]);
    }
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 1 + gen.uniform(40);
      std::vector<bits::BitVector> rows;
      std::vector<std::uint64_t> words;
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(pool[gen.uniform(pool.size())]);
        words.insert(words.end(), rows.back().words().begin(), rows.back().words().end());
      }
      const auto min_votes = static_cast<std::uint32_t>(1 + gen.uniform(4));
      std::vector<std::uint32_t> distinct;
      std::vector<std::uint32_t> group_of(n, 99);
      const auto packed = tally(PackedRows{words, width}, min_votes, distinct, group_of);
      const auto want = tally(rows, min_votes);
      ASSERT_EQ(packed.size(), want.size()) << "width " << width;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(packed[k].vec, want[k].vec);
        EXPECT_EQ(packed[k].votes, want[k].votes);
      }
      // distinct holds one row per content, and every row maps to its own.
      for (std::size_t a = 0; a < distinct.size(); ++a) {
        for (std::size_t b = a + 1; b < distinct.size(); ++b) {
          EXPECT_FALSE(rows[distinct[a]] == rows[distinct[b]]);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LT(group_of[i], distinct.size());
        EXPECT_EQ(rows[distinct[group_of[i]]], rows[i]);
      }
      EXPECT_EQ(tally(rows, 1).size(), distinct.size());
    }
  }
}

// ------------------------------------------------- packed channels vs a model

/// What a board must hold: each channel's current post per player.
using Model = std::map<std::string, std::map<matrix::PlayerId, bits::BitVector>>;

/// popular() computed from the model: equal rows grouped by ==, those
/// with min_votes votes, in lex_compare order.
std::vector<VotedVector> model_popular(const std::map<matrix::PlayerId, bits::BitVector>& posts,
                                       std::uint32_t min_votes) {
  std::vector<VotedVector> groups;
  for (const auto& [p, v] : posts) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const VotedVector& g) { return g.vec == v; });
    if (it == groups.end()) {
      groups.push_back({v, 1});
    } else {
      ++it->votes;
    }
  }
  std::erase_if(groups, [&](const VotedVector& g) { return g.votes < min_votes; });
  std::sort(groups.begin(), groups.end(), [](const VotedVector& a, const VotedVector& b) {
    return a.vec.lex_compare(b.vec) < 0;
  });
  return groups;
}

void expect_same_popular(const std::vector<VotedVector>& got,
                         const std::vector<VotedVector>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].vec, want[k].vec) << where;
    EXPECT_EQ(got[k].votes, want[k].votes) << where;
  }
}

constexpr std::size_t kModelPlayers = 12;
const std::vector<std::string> kModelChannels{"a", "b", "c"};

/// Every read of the board against the model.
void expect_matches(const Billboard& b, const Model& model, const std::string& where) {
  std::vector<Billboard::ChannelDump> dumps;
  for (const auto& [name, posts] : model) {
    if (!posts.empty()) dumps.push_back({name, {posts.begin(), posts.end()}});
  }
  EXPECT_TRUE(b.export_posts() == dumps) << where;
  for (const auto& name : kModelChannels) {
    const auto it = model.find(name);
    const std::map<matrix::PlayerId, bits::BitVector> none;
    const auto& posts = it == model.end() ? none : it->second;
    EXPECT_EQ(b.posters(name), posts.size()) << where << " " << name;
    for (matrix::PlayerId p = 0; p < kModelPlayers; ++p) {
      EXPECT_EQ(b.has_posted(name, p), posts.count(p) == 1) << where << " " << name << " " << p;
    }
    // A miss, a memo hit, and a miss at another bar.
    for (const std::uint32_t min_votes : {1u, 1u, 2u}) {
      expect_same_popular(b.popular(name, min_votes), model_popular(posts, min_votes),
                          where + " " + name + " min_votes " + std::to_string(min_votes));
    }
  }
}

/// Rows drawn from a few per-width vectors, one of them all zeros, so
/// channels hold equal rows, and equal words at different widths.
class RowPool {
 public:
  explicit RowPool(rng::Rng& gen) : gen_(&gen) {}
  bits::BitVector row(std::size_t width) {
    auto& pool = pools_[width];
    if (pool.empty()) {
      pool.emplace_back(width);
      for (int i = 0; i < 2; ++i) pool.push_back(matrix::random_vector(width, *gen_));
    }
    return pool[gen_->uniform(pool.size())];
  }

 private:
  rng::Rng* gen_;
  std::map<std::size_t, std::vector<bits::BitVector>> pools_;
};

// Random post and post_many, over widths of 1 to 300 bits: after each
// step every read of the board agrees with a model that keeps each
// player's current post.
TEST(Billboard, PackedChannelsMatchAModel) {
  rng::Rng gen(2024);
  RowPool pool(gen);
  const std::vector<std::size_t> widths{1, 3, 5, 63, 64, 65, 128, 129, 200, 300};
  Billboard b;
  Model model;

  // A repost that widens a channel's stride, then a narrower one.
  for (const matrix::PlayerId p : {3, 7}) {
    const auto row = pool.row(5);
    b.post("a", p, row);
    model["a"][p] = row;
  }
  for (const std::size_t width : {300, 64, 1}) {
    const auto row = pool.row(width);
    b.post("a", 3, row);
    model["a"][3] = row;
    expect_matches(b, model, "repost of width " + std::to_string(width));
  }
  // Every row one word of one width again, at a stride of five words.
  for (const matrix::PlayerId p : {3, 7}) {
    const auto row = bits::BitVector::from_string(p == 3 ? "0" : "1");
    b.post("a", p, row);
    model["a"][p] = row;
  }
  expect_matches(b, model, "one-bit rows at a wide stride");

  const auto some_players = [&] {
    std::vector<matrix::PlayerId> players;
    for (matrix::PlayerId p = 0; p < kModelPlayers; ++p) {
      if (gen.uniform(2) == 0) players.push_back(p);
    }
    rng::shuffle(players, gen);
    return players;
  };
  for (int step = 0; step < 120; ++step) {
    const std::string& channel = kModelChannels[gen.uniform(kModelChannels.size())];
    const std::size_t width = gen.uniform(4) == 0 ? 1 + gen.uniform(300)
                                                  : widths[gen.uniform(widths.size())];
    const auto players = some_players();
    std::vector<bits::BitVector> rows;
    for (std::size_t i = 0; i < players.size(); ++i) {
      // Half the rows of a batch share its width; the rest mix widths.
      rows.push_back(pool.row(gen.uniform(2) == 0 ? width : widths[gen.uniform(widths.size())]));
    }
    std::string what;
    if (gen.uniform(2) == 0) {
      what = "post";
      if (players.empty()) continue;
      b.post(channel, players[0], rows[0]);
      model[channel][players[0]] = rows[0];
    } else {
      what = "post_many";
      b.post_many(channel, players, rows);
      for (std::size_t i = 0; i < players.size(); ++i) model[channel][players[i]] = rows[i];
    }
    expect_matches(b, model, "step " + std::to_string(step) + " " + what);
    if (testing::Test::HasFailure()) return;
  }

  // A restored board holds the same posts, and keeps taking posts.
  Billboard restored;
  restored.restore_posts(b.export_posts());
  expect_matches(restored, model, "restored");
  const auto row = pool.row(300);
  restored.post("b", 0, row);
  model["b"][0] = row;
  expect_matches(restored, model, "restored, then reposted");
}

// post_many and one post() per row log the same vector_post records
// for the same rows: one per post, with the row's BitVector hash and
// width.
TEST(Billboard, PostsRecordOneVectorPostPerRow) {
  rng::Rng gen(7);
  std::vector<matrix::PlayerId> players{4, 0, 2, 3};
  std::vector<bits::BitVector> rows;
  for (std::size_t i = 0; i < players.size(); ++i) rows.push_back(matrix::random_vector(130, gen));
  const std::string channel = "sr/0/0/zr/1";
  enum class Post { kRecordedByHand, kMany, kOneByOne };
  const auto record = [&](Post how) {
    std::ostringstream out;
    obs::FlightRecorder rec(out);
    rec.run_begin("posts", 0.5, 5, 130);
    Billboard b;
    b.set_recorder(&rec);
    for (std::size_t i = 0; i < players.size(); ++i) {
      if (how == Post::kRecordedByHand) {
        rec.vector_post(players[i], channel, rows[i].hash(), rows[i].size());
      } else if (how == Post::kOneByOne) {
        b.post(channel, players[i], rows[i]);
      }
    }
    if (how == Post::kMany) b.post_many(channel, players, rows);
    rec.flush();
    return out.str();
  };
  const std::string want = record(Post::kRecordedByHand);
  EXPECT_NE(want.find("vector_post"), std::string::npos);
  EXPECT_EQ(record(Post::kMany), want);
  EXPECT_EQ(record(Post::kOneByOne), want);
}

// Spans of different lengths post nothing: no row, no channel, no
// record.
TEST(Billboard, PostManyNeedsOneRowPerPlayer) {
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  rec.run_begin("posts", 0.5, 3, 2);
  Billboard b;
  b.set_recorder(&rec);
  const std::vector<matrix::PlayerId> players{0, 1};
  const std::vector<bits::BitVector> rows(3, bits::BitVector::from_string("01"));
  EXPECT_THROW(b.post_many("ch", players, std::span(rows).first(1)), std::invalid_argument);
  EXPECT_THROW(b.post_many("ch", players, rows), std::invalid_argument);
  EXPECT_THROW(b.post_many("ch", {}, std::span(rows).first(1)), std::invalid_argument);
  EXPECT_EQ(b.posters("ch"), 0u);
  EXPECT_FALSE(b.has_posted("ch", 0));
  EXPECT_TRUE(b.export_posts().empty());
  rec.flush();
  EXPECT_EQ(out.str().find("vector_post"), std::string::npos);
}

TEST(Billboard, ConcurrentPostsSafe) {
  Billboard b;
  const auto v = bits::BitVector::from_string("0101");
  engine::parallel_for(
      0, 128, [&](std::size_t p) { b.post("ch", static_cast<matrix::PlayerId>(p), v); }, 1);
  EXPECT_EQ(b.posters("ch"), 128u);
  const auto pop = b.popular("ch", 128);
  ASSERT_EQ(pop.size(), 1u);
  EXPECT_EQ(pop[0].votes, 128u);
}

}  // namespace
}  // namespace tmwia::billboard
