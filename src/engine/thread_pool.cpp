#include "tmwia/engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <utility>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::engine {
namespace {

// tmwia-lint: allow(nonconst-global) registered singleton: global pool config
std::atomic<std::size_t> g_desired_threads{0};
// tmwia-lint: allow(nonconst-global) registered singleton: global pool latch
std::atomic<bool> g_global_started{false};

/// Set while this thread runs a parallel_for chunk: a loop issued from
/// inside one runs inline. Tasks nest per-player loops inside one chunk
/// each; splitting those again would only add dispatches.
thread_local bool t_inside_chunk = false;

}  // namespace

bool detail::inside_chunk() { return t_inside_chunk; }

/// One dispatched loop. It lives on the caller's stack from publish to
/// the end of run(); workers reach it only through the job list.
struct ThreadPool::Job {
  Job(std::size_t b, std::size_t e, std::size_t g,
      const std::function<void(std::size_t)>& f)
      : begin(b), end(e), grain(g), chunks((e - b) / g + ((e - b) % g != 0)), body(&f) {}

  const std::size_t begin;
  const std::size_t end;
  const std::size_t grain;
  const std::size_t chunks;
  const std::function<void(std::size_t)>* const body;
  // The caller's (profiler, zone): costs deposited inside parallelized
  // player loops attribute to the phase that spawned them, in the
  // caller's profiler, not to an anonymous worker root.
  const obs::Profiler::Current profile = obs::Profiler::current();
  /// The next unclaimed chunk. Claims only need distinct indexes: the
  /// chunks' results reach the caller through `mu` below.
  std::atomic<std::size_t> next{0};

  Mutex mu;
  CondVar left;  ///< a worker left the job
  std::size_t workers TMWIA_GUARDED_BY(mu) = 0;  ///< joined and not yet left
  std::exception_ptr first_error TMWIA_GUARDED_BY(mu);

  [[nodiscard]] bool claimable() const {
    return next.load(std::memory_order_relaxed) < chunks;
  }

  /// Claim and run chunks until none is left (the caller and every
  /// joined worker run this). A throwing chunk records the job's first
  /// error and exhausts the cursor, so no further chunk starts.
  void run_chunks() {
    const obs::Profiler::Current prev_profile = obs::Profiler::swap_current(profile);
    const bool was_inside = std::exchange(t_inside_chunk, true);
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*body)(i);
      } catch (...) {
        next.store(chunks, std::memory_order_relaxed);
        MutexLock lk(mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
    t_inside_chunk = was_inside;
    obs::Profiler::swap_current(prev_profile);
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(g_desired_threads.load(std::memory_order_relaxed));
  g_global_started.store(true, std::memory_order_release);
  return pool;
}

bool ThreadPool::global_started() {
  return g_global_started.load(std::memory_order_acquire);
}

bool set_global_threads(std::size_t threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("set_global_threads: " + std::to_string(threads) +
                                " threads is above the maximum of " +
                                std::to_string(kMaxThreads));
  }
  if (ThreadPool::global_started()) return false;
  g_desired_threads.store(threads, std::memory_order_relaxed);
  return true;
}

ThreadPool::Job* ThreadPool::claimable_job() const {
  for (Job* job : jobs_) {
    if (job->claimable()) return job;
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lk(mu_);
      while (!stop_ && (job = claimable_job()) == nullptr) cv_job_.wait(lk);
      if (stop_) return;
      // Joined under the pool lock: the caller withdraws the job under
      // it too, so after that it counts every worker it must wait for.
      MutexLock jl(job->mu);
      ++job->workers;
    }
    job->run_chunks();
    MutexLock jl(job->mu);
    if (--job->workers == 0) job->left.notify_all();
  }
}

void ThreadPool::run(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (grain == 0) throw std::invalid_argument("ThreadPool::run: grain must be at least 1");
  if (end <= begin) return;
  // Backend reselection during a phase would hand different threads
  // different kernel vtables; the gate turns that misuse into a loud
  // error at the set_backend call site.
  const bits::kernels::ParallelPhaseGuard kernel_gate;

  Job job(begin, end, grain, body);
  {
    MutexLock lk(mu_);
    jobs_.push_back(&job);
  }
  cv_job_.notify_all();
  job.run_chunks();
  {
    MutexLock lk(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  }
  MutexLock lk(job.mu);
  while (job.workers != 0) job.left.wait(lk);
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace tmwia::engine
