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

// A job's chunks cover its range once, whichever thread claims them.
TEST(ThreadPool, RunsEveryChunkOfAJob) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.run(0, 50, [&](std::size_t i) { hits[i].fetch_add(1); }, 1);
  pool.run(50, 50, [&](std::size_t) { FAIL() << "empty range ran"; }, 1);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// A one-thread pool starts no worker: the caller runs every chunk.
TEST(ThreadPool, OneThreadPoolRunsJobsOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::size_t on_caller = 0;
  pool.run(0, 100, [&](std::size_t) { on_caller += std::this_thread::get_id() == caller; }, 7);
  EXPECT_EQ(on_caller, 100u);
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

/// Where the elements of one dispatched loop ran.
struct Meeting {
  std::size_t on_caller = 0;
  std::size_t on_workers = 0;
  bool timed_out = false;
};

/// parallel_for(0, n, ..., grain) where no element gets past its start
/// before the calling thread and some worker have both started one: an
/// element on the caller waits for one on a worker, and one on a worker
/// waits for one on the caller. Then `after(on_caller, i)` runs. A pool
/// whose caller runs chunks beside its workers always gets there when
/// the loop has more chunks than workers: the waiting workers hold at
/// most threads - 1 chunks, which leaves one for the caller, and while
/// the caller waits in its chunk the workers take the others. The waits
/// are bounded only so that a regression fails instead of hanging.
template <typename After>
Meeting meet(std::size_t n, std::size_t grain, const After& after) {
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_started{false};
  std::atomic<bool> worker_started{false};
  std::atomic<bool> timed_out{false};
  std::atomic<std::size_t> on_caller{0};
  std::atomic<std::size_t> on_workers{0};
  const auto wait_for = [&](const std::atomic<bool>& flag) {
    // At least 30 s of polling before giving up.
    for (int polls = 0; !flag.load() && !timed_out.load(); ++polls) {
      if (polls == 300'000) timed_out.store(true);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  parallel_for(
      0, n,
      [&](std::size_t i) {
        const bool mine = std::this_thread::get_id() == caller;
        (mine ? caller_started : worker_started).store(true);
        wait_for(mine ? worker_started : caller_started);
        (mine ? on_caller : on_workers).fetch_add(1);
        after(mine, i);
      },
      grain);
  return {on_caller.load(), on_workers.load(), timed_out.load()};
}

// A loop goes to the pool only when it gives every thread one full
// chunk; shorter loops run on the caller.
TEST(ParallelFor, LoopsUnderAChunkPerThreadRunInline) {
  ASSERT_TRUE(kPoolSized);
  const std::size_t threads = ThreadPool::global().thread_count();
  const auto caller = std::this_thread::get_id();
  std::atomic<std::size_t> hits{0};
  parallel_for(
      0, threads * 16 - 1,
      [&](std::size_t) { hits.fetch_add(std::this_thread::get_id() == caller); }, 16);
  EXPECT_EQ(hits.load(), threads * 16 - 1);
  // One chunk per thread dispatches: workers run some of it.
  const auto m = meet(threads * 16, 16, [](bool, std::size_t) {});
  EXPECT_FALSE(m.timed_out);
  EXPECT_GT(m.on_workers, 0u);
  EXPECT_EQ(m.on_caller + m.on_workers, threads * 16);
}

// The thread that dispatches a loop runs chunks of it beside the
// workers, instead of only waiting for them.
TEST(ParallelFor, CallerRunsChunksBesideTheWorkers) {
  ASSERT_TRUE(kPoolSized);
  const std::size_t threads = ThreadPool::global().thread_count();
  ASSERT_GE(threads, 2u);
  for (const std::size_t grain : {1u, 16u}) {
    const auto m = meet(threads * grain, grain, [](bool, std::size_t) {});
    EXPECT_FALSE(m.timed_out) << grain;
    EXPECT_GE(m.on_caller, grain);
    EXPECT_GE(m.on_workers, grain);
    EXPECT_EQ(m.on_caller + m.on_workers, threads * grain);
  }
}

// An exception propagates from a chunk on the caller and from one on a
// worker; when both throw, exactly one of them reaches the caller.
// After each, the pool runs the next loop whole.
TEST(ParallelFor, ExceptionsFromCallerAndWorkerChunksPropagate) {
  ASSERT_TRUE(kPoolSized);
  const std::size_t threads = ThreadPool::global().thread_count();
  ASSERT_GE(threads, 2u);
  const auto thrower = [](bool on_caller_throws, bool on_worker_throws) {
    return [=](bool on_caller, std::size_t) {
      if (on_caller && on_caller_throws) throw std::logic_error("caller");
      if (!on_caller && on_worker_throws) throw std::runtime_error("worker");
    };
  };
  EXPECT_THROW(meet(threads, 1, thrower(true, false)), std::logic_error);
  EXPECT_THROW(meet(threads, 1, thrower(false, true)), std::runtime_error);
  for (int rep = 0; rep < 8; ++rep) {
    int caught = 0;
    try {
      meet(threads, 1, thrower(true, true));
    } catch (const std::logic_error&) {
      ++caught;
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
    for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

// Threads outside the pool may dispatch at once (serve refines two
// tenants at a time); each loop covers its own range exactly once.
TEST(ParallelFor, ConcurrentCallersEachCoverTheirRange) {
  ASSERT_TRUE(kPoolSized);
  constexpr std::size_t kCallers = 2;
  constexpr std::size_t kN = 4096;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::vector<std::atomic<int>>> hits;
    for (std::size_t c = 0; c < kCallers; ++c) hits.emplace_back(kN);
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        ready.fetch_add(1);
        while (ready.load() < kCallers) std::this_thread::yield();
        parallel_for(0, kN, [&](std::size_t i) { hits[c][i].fetch_add(1); }, 16);
      });
    }
    for (auto& t : callers) t.join();
    for (std::size_t c = 0; c < kCallers; ++c) {
      for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[c][i].load(), 1) << c << " " << i;
    }
  }
}

// Grain 0 is a caller error, not a division by zero: it throws before
// any element runs, on the pool path, the inline path and an empty
// range alike.
TEST(ParallelFor, GrainZeroIsRejected) {
  ASSERT_TRUE(kPoolSized);
  std::atomic<int> calls{0};
  const auto body = [&](std::size_t) { calls.fetch_add(1); };
  EXPECT_THROW(parallel_for(0, 1000, body, 0), std::invalid_argument);
  EXPECT_THROW(parallel_for(0, 10, body, 0), std::invalid_argument);
  EXPECT_THROW(parallel_for(5, 5, body, 0), std::invalid_argument);
  EXPECT_THROW(ThreadPool::global().run(0, 1000, body, 0), std::invalid_argument);
  EXPECT_EQ(calls.load(), 0);
}

// A loop issued from inside a pool chunk runs inline on the thread that
// runs the chunk, the caller or a worker: tasks nest their per-player
// loops inside one chunk each.
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
        const auto runner = std::this_thread::get_id();
        parallel_for(
            0, kInner,
            [&](std::size_t i) {
              sum.fetch_add(o * kInner + i);
              moved.fetch_add(std::this_thread::get_id() != runner);
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
