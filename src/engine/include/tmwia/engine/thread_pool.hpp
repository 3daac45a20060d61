// Execution engine for the synchronous-rounds simulation.
//
// The paper's model is n players acting in lockstep rounds. Inside one
// logical phase the players' computations are independent (they read
// the billboard snapshot from the previous phase, probe, and post), so
// we execute per-player work with a fork-join parallel_for: the loop's
// fixed chunks are claimed from a shared cursor by the calling thread
// and the pool's workers alike. Determinism: the work function receives
// the player index, writes its results by that index and draws
// randomness only from streams split by it, so results are independent
// of which thread ran which chunk.
//
// Dispatch rule: a loop goes to the pool only when its range can give
// every pool thread one full chunk (end - begin >= threads x grain);
// smaller loops cost more to dispatch than to run, and run inline on
// the caller. A parallel_for issued from inside a pool chunk also runs
// inline, so tasks may nest loops freely (Large Radius runs each object
// group as one chunk, and the group's per-player loops inline).
//
// The caller runs chunks of its own loop, so a thread_local buffer
// must not be live on the caller across a parallel_for call: a chunk
// body that uses the same buffer would overwrite it.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::engine {

using support::CondVar;
using support::Mutex;
using support::MutexLock;

/// A fixed-size fork-join pool. A pool of `threads` runs each loop on
/// the calling thread plus `threads - 1` worker threads.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (>= 1).
  /// Starts threads - 1 workers: a one-thread pool starts none.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a loop, the calling thread included.
  [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run body(i) for every i in [begin, end) as one job of chunks of
  /// `grain` elements (chunk c covers [begin + c·grain, begin +
  /// (c+1)·grain) ∩ [begin, end)). The caller and every idle worker
  /// claim chunks until none is left; then the caller waits for the
  /// workers that joined. The first exception a chunk throws is
  /// rethrown here, and no chunk starts after it. Several threads may
  /// run jobs at once; each waits only for its own. Requires grain >= 1.
  void run(std::size_t begin, std::size_t end, const std::function<void(std::size_t)>& body,
           std::size_t grain);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Has the global pool been constructed yet?
  static bool global_started();

 private:
  struct Job;

  void worker_loop();
  /// The first published job with an unclaimed chunk, or nullptr.
  [[nodiscard]] Job* claimable_job() const TMWIA_REQUIRES(mu_);

  Mutex mu_;
  CondVar cv_job_;  ///< a job was published, or the pool stops
  std::vector<Job*> jobs_ TMWIA_GUARDED_BY(mu_);  ///< published, not yet withdrawn
  bool stop_ TMWIA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< written once in the ctor, then join-only
};

/// The largest pool size set_global_threads accepts. Far above any
/// core count this code is run on; it keeps a mistyped --threads from
/// trying to start millions of workers.
inline constexpr std::size_t kMaxThreads = 256;

/// Request a size for the process-global pool (0 = hardware
/// concurrency). Takes effect only if the pool has not been
/// constructed yet — call it before the first parallel_for (e.g. from
/// a --threads= CLI flag). Returns false (and changes nothing) if the
/// pool already exists. Throws std::invalid_argument above kMaxThreads.
bool set_global_threads(std::size_t threads);

namespace detail {

/// Is the calling thread running a parallel_for chunk?
[[nodiscard]] bool inside_chunk();

/// The dispatch rule: does a loop of n elements in chunks of `grain`
/// go to the pool? Loops under two chunks never touch the pool (nor
/// build it).
[[nodiscard]] inline bool dispatches(std::size_t n, std::size_t grain) {
  if (n / 2 < grain || inside_chunk()) return false;
  const std::size_t threads = ThreadPool::global().thread_count();
  return threads > 1 && n / threads >= grain;
}

}  // namespace detail

/// Run body(i) for i in [begin, end) across the global pool in fixed
/// chunks. Blocks until complete. Exceptions in body are rethrown
/// (first one wins). Loops the dispatch rule keeps off the pool run
/// serially on the caller — inlined here so the per-element calls carry
/// no type-erasure cost on that path (per-player loops run tens of
/// millions of elements); a dispatched loop constructs its type-erased
/// body once. Throws std::invalid_argument for grain 0, before any
/// element runs.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 64) {
  if (grain == 0) throw std::invalid_argument("parallel_for: grain must be at least 1");
  if (end <= begin) return;
  if (!detail::dispatches(end - begin, grain)) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ThreadPool::global().run(begin, end, body, grain);
}

}  // namespace tmwia::engine
