// Thread-safety stress tests for the concurrently-used structures:
// Billboard's posting surface and the MetricsRegistry shard merge.
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
#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/matrix/ids.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/rng.hpp"

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

  const auto got = board.snapshot("votes");
  const auto want = serial.snapshot("votes");
  ASSERT_EQ(got.players, want.players);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i], want.rows[i]) << "player " << want.players[i];
  }
  EXPECT_EQ(board.posters("votes"), players);
  EXPECT_EQ(board.total_posts(), serial.total_posts());
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

TEST(ThreadSafety, SetBackendRejectedDuringParallelPhase) {
  namespace kernels = tmwia::bits::kernels;
  const auto current = kernels::requested_backend();
  ASSERT_EQ(kernels::parallel_phases_active(), 0u);
  {
    const kernels::ParallelPhaseGuard gate;
    EXPECT_EQ(kernels::parallel_phases_active(), 1u);
    EXPECT_THROW(kernels::set_backend(current), std::logic_error);
  }
  EXPECT_EQ(kernels::parallel_phases_active(), 0u);
  // Idle again: reselection is legal and keeps the same backend.
  EXPECT_NO_THROW(kernels::set_backend(current));
  EXPECT_EQ(kernels::requested_backend(), current);
}

}  // namespace
