// Tests for the execution engine: thread pool lifecycle, parallel_for
// coverage, exception propagation, determinism of result placement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tmwia/engine/thread_pool.hpp"

namespace tmwia::engine {
namespace {

// The global pool gets four workers in every test process, one core or
// many, so the dispatch tests below run against a real pool.
const bool kPoolSized = set_global_threads(4);

TEST(ThreadPool, ConstructsWithRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSingleton) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, OffsetRange) {
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(i); }, 8);
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 500,
                   [](std::size_t i) {
                     if (i == 250) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(ParallelFor, ResultsIndependentOfGrain) {
  std::vector<int> a(512), b(512);
  parallel_for(0, 512, [&](std::size_t i) { a[i] = static_cast<int>(i * i % 97); }, 1);
  parallel_for(0, 512, [&](std::size_t i) { b[i] = static_cast<int>(i * i % 97); }, 200);
  EXPECT_EQ(a, b);
}

TEST(ThreadPool, SetGlobalThreadsRejectsCountsAboveTheMaximum) {
  EXPECT_THROW(set_global_threads(kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(set_global_threads(std::size_t{1} << 40), std::invalid_argument);
  EXPECT_THROW(set_global_threads(std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
  // A count in range is only refused once the pool exists.
  EXPECT_EQ(ThreadPool::global().thread_count(), 4u);
  EXPECT_FALSE(set_global_threads(kMaxThreads));
}

// A loop goes to the pool only when it gives every worker one full
// chunk; shorter loops run on the caller.
TEST(ParallelFor, LoopsUnderAChunkPerThreadRunInline) {
  ASSERT_TRUE(kPoolSized);
  const std::size_t threads = ThreadPool::global().thread_count();
  const auto caller = std::this_thread::get_id();
  const auto on_caller = [&](std::size_t n, std::size_t grain) {
    std::atomic<std::size_t> hits{0};
    parallel_for(
        0, n, [&](std::size_t) { hits.fetch_add(std::this_thread::get_id() == caller); },
        grain);
    return hits.load();
  };
  EXPECT_EQ(on_caller(threads * 16 - 1, 16), threads * 16 - 1);
  EXPECT_EQ(on_caller(threads * 16, 16), 0u);  // the caller only waits
}

// A loop issued from inside a pool chunk runs inline on that worker.
// Dispatching it would park the worker on a join whose chunks queue
// behind the outer chunks; once every worker held an outer chunk (the
// sleep makes sure they all do), nothing would run.
TEST(ParallelFor, NestedCallRunsInline) {
  ASSERT_TRUE(kPoolSized);
  ASSERT_GE(ThreadPool::global().thread_count(), 2u);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 512;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::size_t> moved{0};
  parallel_for(
      0, kOuter,
      [&](std::size_t o) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const auto worker = std::this_thread::get_id();
        parallel_for(
            0, kInner,
            [&](std::size_t i) {
              sum.fetch_add(o * kInner + i);
              moved.fetch_add(std::this_thread::get_id() != worker);
            },
            16);
      },
      1);
  constexpr std::uint64_t kTotal = kOuter * kInner;
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(moved.load(), 0u);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // Under the grain threshold the body runs on the calling thread, so
  // thread-unsafe captures are fine.
  std::vector<int> order;
  parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 64);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace tmwia::engine
