// Thread-safety stress tests for the concurrently-used structures:
// Billboard's posting surface (one channel and several channels), the
// MetricsRegistry shard merge, and a ProtocolAuditor shared by forked
// probe ledgers.
//
// These tests are most valuable under ThreadSanitizer (run_tests.sh
// --tsan builds and runs them there), but they also assert a functional
// contract that holds in any build: hammering the structures from N
// threads must produce byte-identical results to the same operations
// applied single-threaded, because posts are keyed by player (order
// between players is immaterial) and metric merges are commutative sums.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/matrix/ids.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/rng.hpp"
#include "audit_json.hpp"

namespace {

using tmwia::bits::BitVector;
using tmwia::matrix::PlayerId;

constexpr std::size_t kThreads = 8;
constexpr std::size_t kPlayersPerThread = 32;
constexpr std::size_t kObjects = 193;  // straddles a word boundary

/// Deterministic per-player row, independent of which thread posts it.
BitVector row_for(PlayerId p) {
  tmwia::rng::Rng rng(tmwia::rng::Rng(0xb111b0a2d).split(p));
  BitVector v(kObjects);
  for (std::size_t w = 0; w * BitVector::kWordBits < kObjects; ++w) {
    v.set_word(w, rng.next());
  }
  return v;
}

TEST(ThreadSafety, ConcurrentBillboardPostsMatchSerial) {
  const std::size_t players = kThreads * kPlayersPerThread;
  std::vector<BitVector> rows;
  rows.reserve(players);
  for (PlayerId p = 0; p < players; ++p) rows.push_back(row_for(p));

  // Serial reference: every player posts in id order from one thread.
  tmwia::billboard::Billboard serial;
  for (PlayerId p = 0; p < players; ++p) serial.post("votes", p, rows[p]);

  // Stress: each thread batch-posts its own player slice while also
  // reading posters()/has_posted()/popular() — readers race writers.
  tmwia::billboard::Billboard board;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&board, &rows, t] {
      const PlayerId first = static_cast<PlayerId>(t * kPlayersPerThread);
      std::vector<PlayerId> ids;
      ids.reserve(kPlayersPerThread);
      for (std::size_t i = 0; i < kPlayersPerThread; ++i) {
        ids.push_back(first + static_cast<PlayerId>(i));
      }
      // Post in three chunks with interleaved reads, so reads and the
      // tally memo race other threads' first posts into the channel.
      const std::size_t third = kPlayersPerThread / 3;
      std::size_t done = 0;
      while (done < kPlayersPerThread) {
        const std::size_t n = std::min(third + 1, kPlayersPerThread - done);
        board.post_many("votes", std::span(ids).subspan(done, n),
                        std::span(rows).subspan(first + done, n));
        done += n;
        (void)board.posters("votes");
        (void)board.has_posted("votes", first);
        (void)board.popular("votes", 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(board.posters("votes"), players);
  EXPECT_TRUE(board.export_posts() == serial.export_posts());
}

/// Deterministic row for (thread, channel, player): different threads
/// write different rows for the same player.
BitVector task_row(std::size_t t, std::size_t channel, PlayerId p) {
  return row_for(static_cast<PlayerId>((t * 16 + channel) * 1024 + p));
}

void expect_same_board(const tmwia::billboard::Billboard& got,
                       const tmwia::billboard::Billboard& want) {
  const auto a = got.export_posts();
  const auto b = want.export_posts();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_TRUE(a[i].posts == b[i].posts) << a[i].channel;
  }
}

// Four threads post to channels of their own, each read back while the
// others post; the board equals the same posts made from one thread.
TEST(ThreadSafety, DistinctChannelPostsMatchSerial) {
  const auto work = [](tmwia::billboard::Billboard& board, std::size_t t) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::string ch = "t" + std::to_string(t) + "/c" + std::to_string(c);
      for (PlayerId lo = 0; lo < 64; lo += 16) {
        std::vector<PlayerId> ids;
        std::vector<BitVector> rows;
        for (PlayerId p = lo; p < lo + 16; ++p) {
          ids.push_back(p);
          rows.push_back(task_row(t, c, p));
        }
        board.post_many(ch, ids, rows);
        (void)board.popular(ch, 1);
        (void)board.has_posted(ch, lo);
      }
    }
  };
  tmwia::billboard::Billboard serial;
  for (std::size_t t = 0; t < 4; ++t) work(serial, t);
  tmwia::billboard::Billboard board;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) threads.emplace_back([&board, &work, t] { work(board, t); });
  for (auto& th : threads) th.join();
  expect_same_board(board, serial);
}

/// Apply thread t's deterministic slice of metric traffic.
void metric_work(tmwia::obs::MetricsRegistry& reg, std::size_t t) {
  // find-or-create from every thread: registration itself is part of
  // the contended surface under test.
  auto ops = reg.counter("ops");
  auto mine = reg.counter("thread." + std::to_string(t));
  auto lat = reg.histogram("lat", tmwia::obs::MetricsRegistry::pow2_bounds(10));
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ops.add(i % 7);
    mine.inc();
    lat.observe((t * 2000 + i) % 700);
  }
}

TEST(ThreadSafety, ConcurrentMetricShardsMergeToSerialSnapshot) {
  tmwia::obs::MetricsRegistry serial(true);
  for (std::size_t t = 0; t < kThreads; ++t) metric_work(serial, t);

  tmwia::obs::MetricsRegistry reg(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] { metric_work(reg, t); });
  }
  for (auto& th : threads) th.join();

  const auto got = reg.snapshot();
  const auto want = serial.snapshot();
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.to_json(), want.to_json());
  std::uint64_t ops_per_thread = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) ops_per_thread += i % 7;
  EXPECT_EQ(got.counter("ops"), ops_per_thread * kThreads);
}

/// Task t of the auditor stress: players 6t .. 6t+15 (neighbouring
/// tasks share players), each probing the task's own 32 objects as two
/// blocks and one single re-probe, like a Large Radius group's fork.
std::vector<PlayerId> audit_task_members(std::size_t t) {
  std::vector<PlayerId> members;
  for (std::size_t p = 6 * t; p < 6 * t + 16; ++p) members.push_back(static_cast<PlayerId>(p));
  return members;
}

void audit_task_probes(tmwia::billboard::ProbeOracle& oracle, std::size_t t) {
  std::vector<tmwia::matrix::ObjectId> objs(32);
  for (std::size_t j = 0; j < objs.size(); ++j) {
    objs[j] = static_cast<tmwia::matrix::ObjectId>(32 * t + j);
  }
  const std::span<const tmwia::matrix::ObjectId> all(objs);
  for (const PlayerId p : audit_task_members(t)) {
    BitVector first(20);
    BitVector rest(12);
    oracle.probe_block(p, all.first(20), first);
    oracle.probe_block(p, all.subspan(20), rest);
    (void)oracle.probe(p, objs[p % objs.size()]);
  }
}

// Eight tasks on a 4-thread pool probe through forks of one audited
// oracle, for overlapping players: each player's A4 ledger takes counts
// from several threads at once. The report, the auditor's ledger and
// the joined oracle ledger equal those of the same probes made
// serially on one oracle.
TEST(ThreadSafety, AuditedForksShareOneAuditor) {
  constexpr std::size_t kTasks = 8;
  tmwia::rng::Rng gen(0xa0d17);
  const auto inst = tmwia::matrix::planted_community(64, 32 * kTasks, {0.5, 2}, gen);

  tmwia::billboard::ProbeOracle serial(inst.matrix);
  tmwia::billboard::ProtocolAuditor serial_auditor(serial.players(), serial.objects());
  serial.set_auditor(&serial_auditor);
  for (std::size_t t = 0; t < kTasks; ++t) audit_task_probes(serial, t);
  const auto want = serial_auditor.report();
  ASSERT_EQ(want.probes_audited, serial.total_invocations());

  tmwia::engine::ThreadPool pool(4);
  for (int rep = 0; rep < 4; ++rep) {
    tmwia::billboard::ProbeOracle oracle(inst.matrix);
    tmwia::billboard::ProtocolAuditor auditor(oracle.players(), oracle.objects());
    oracle.set_auditor(&auditor);
    std::vector<tmwia::billboard::ProbeOracle> forks;
    forks.reserve(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t) {
      forks.push_back(oracle.fork(audit_task_members(t)));
    }
    pool.run(0, kTasks, [&](std::size_t t) { audit_task_probes(forks[t], t); }, 1);
    for (const auto& fork : forks) oracle.join(fork);

    EXPECT_EQ(oracle.snapshot(), serial.snapshot());
    auditor.verify_invocations(serial.snapshot());
    const auto got = auditor.report();
    EXPECT_TRUE(got.clean()) << audit_json(got);
    EXPECT_EQ(audit_json(got), audit_json(want));
  }
}

TEST(ThreadSafety, SetBackendRejectedDuringParallelPhase) {
  namespace kernels = tmwia::bits::kernels;
  const auto current = kernels::requested_backend();
  {
    const kernels::ParallelPhaseGuard gate;
    EXPECT_THROW(kernels::set_backend(current), std::logic_error);
  }
  // Idle again: reselection is legal and keeps the same backend.
  EXPECT_NO_THROW(kernels::set_backend(current));
  EXPECT_EQ(kernels::requested_backend(), current);
}

}  // namespace
