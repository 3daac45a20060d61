// Tests for the billboard module: probe accounting semantics (the cost
// model of Section 1.1) and channel/vote aggregation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/matrix/generators.hpp"
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
  EXPECT_EQ(o.charged(0), 2u);  // (0,1) charged once
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
  EXPECT_FALSE(o.is_probed(1, 2));
  EXPECT_THROW((void)o.probed_value(1, 2), std::logic_error);
  o.probe(1, 2);
  EXPECT_TRUE(o.is_probed(1, 2));
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
  auto fork = o.fork(members, 0);
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
  ProbeOracle fresh(m, NoiseModel::fresh(0.1, 3));
  EXPECT_FALSE(fresh.forkable());
  EXPECT_THROW((void)fresh.fork(std::vector<PlayerId>{0}, 0), std::logic_error);
  ProbeOracle sticky(m, NoiseModel::sticky(0.1, 3));
  EXPECT_TRUE(sticky.forkable());
  const auto fork = sticky.fork(std::vector<PlayerId>{0}, 0);
  EXPECT_FALSE(fork.forkable());
  EXPECT_EQ(fork.fork_order(), 0u);
  EXPECT_FALSE(sticky.fork_order().has_value());
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
    auto fork_a = o.fork(members_a, 0);
    auto fork_b = o.fork(members_b, 1);
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

// ------------------------------------------------------------------ Billboard

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

  const auto view = b.snapshot("ch");
  EXPECT_EQ(view.players, (std::vector<matrix::PlayerId>{2, 5, 9}));
  ASSERT_EQ(view.rows.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(view.rows[i], want[i].second);

  const auto dump = b.export_posts();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].channel, "ch");
  EXPECT_EQ(dump[0].posts, want);
  EXPECT_TRUE(b.has_posted("ch", 5));
  EXPECT_FALSE(b.has_posted("ch", 4));
  EXPECT_FALSE(b.has_posted("ch", 10));
  EXPECT_EQ(b.total_posts(), 3u);
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
  EXPECT_EQ(b.total_posts(), 2u);
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

void post_ordered(Billboard& b, const std::string& channel, matrix::PlayerId p,
                  const std::string& bits, std::uint32_t order) {
  const std::vector<matrix::PlayerId> players{p};
  const std::vector<bits::BitVector> rows{bits::BitVector::from_string(bits)};
  b.post_many(channel, players, rows, order);
}

std::vector<std::string> popular_rows(const Billboard& b, const std::string& channel) {
  std::vector<std::string> out;
  for (const auto& vv : b.popular(channel, 1)) out.push_back(vv.vec.to_string());
  return out;
}

// Inside a section, a shared player's row keeps the highest-order post
// whatever order the posts land in; once the section closes, posts are
// plain again. popular() sees every write that changed a row.
TEST(Billboard, SectionKeepsTheHighestOrderPost) {
  Billboard b;
  b.post("ch", 4, bits::BitVector::from_string("0000"));
  {
    const Billboard::Section section(b, {4});
    post_ordered(b, "ch", 4, "0011", 3);
    EXPECT_EQ(popular_rows(b, "ch"), std::vector<std::string>{"0011"});
    post_ordered(b, "ch", 4, "0001", 1);
    post_ordered(b, "ch", 4, "0010", 2);
    EXPECT_EQ(popular_rows(b, "ch"), std::vector<std::string>{"0011"});
    // A player only one task posts for takes every post as it lands.
    post_ordered(b, "ch", 7, "1100", 2);
    post_ordered(b, "ch", 7, "1000", 0);
    EXPECT_EQ(popular_rows(b, "ch"), (std::vector<std::string>{"0011", "1000"}));
    EXPECT_THROW({ const Billboard::Section second(b, {}); }, std::logic_error);
  }
  EXPECT_EQ(b.snapshot("ch").rows,
            (std::vector<bits::BitVector>{bits::BitVector::from_string("0011"),
                                          bits::BitVector::from_string("1000")}));
  b.post("ch", 4, bits::BitVector::from_string("0001"));
  EXPECT_EQ(popular_rows(b, "ch"), (std::vector<std::string>{"0001", "1000"}));
  EXPECT_THROW(post_ordered(b, "ch", 4, "1111", 9), std::logic_error);
}

TEST(Billboard, SectionOrdersArePerChannel) {
  Billboard b;
  const Billboard::Section section(b, {1});
  post_ordered(b, "x", 1, "01", 5);
  post_ordered(b, "y", 1, "10", 2);  // no order-5 post on y: this one lands
  post_ordered(b, "x", 1, "11", 2);
  EXPECT_EQ(popular_rows(b, "x"), std::vector<std::string>{"01"});
  EXPECT_EQ(popular_rows(b, "y"), std::vector<std::string>{"10"});
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
