// Execution engine for the synchronous-rounds simulation.
//
// The paper's model is n players acting in lockstep rounds. Inside one
// logical phase the players' computations are independent (they read
// the billboard snapshot from the previous phase, probe, and post), so
// we execute per-player work with a work-stealing-free static-chunked
// parallel_for over a shared thread pool. Determinism: the work
// function receives the player index and must draw randomness only from
// streams split by that index, so results are independent of thread
// scheduling.
//
// Dispatch rule: a loop goes to the pool only when its range can give
// every pool thread one full chunk (end - begin >= threads x grain);
// smaller loops cost more to dispatch than to run, and run inline on
// the caller. A parallel_for issued from inside a pool chunk also runs
// inline, so tasks may nest loops freely (Large Radius runs each object
// group as one chunk, and the group's per-player loops inline).
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::engine {

using support::CondVar;
using support::Mutex;
using support::MutexLock;

/// A fixed-size pool of worker threads executing submitted tasks.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (>= 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Submit a task.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.
  void wait_idle();

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Has the global pool been constructed yet?
  static bool global_started();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  ///< written once in the ctor, then join-only
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::queue<std::function<void()>> tasks_ TMWIA_GUARDED_BY(mu_);
  std::size_t in_flight_ TMWIA_GUARDED_BY(mu_) = 0;
  bool stop_ TMWIA_GUARDED_BY(mu_) = false;
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

/// Chunked pool dispatch behind parallel_for; the type-erased body is
/// constructed once per parallel_for call (not per element).
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body, std::size_t grain);

}  // namespace detail

/// Run body(i) for i in [begin, end) across the pool in fixed chunks.
/// Blocks until complete. Exceptions in body are rethrown (first one
/// wins). Loops the dispatch rule keeps off the pool run serially on
/// the caller — inlined here so the per-element calls carry no
/// type-erasure cost on that path (per-player loops run tens of
/// millions of elements).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 64) {
  if (end <= begin) return;
  if (!detail::dispatches(end - begin, grain)) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::parallel_for_chunks(begin, end, body, grain);
}

}  // namespace tmwia::engine
