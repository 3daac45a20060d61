#include "tmwia/engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::engine {
namespace {

// tmwia-lint: allow(nonconst-global) registered singleton: global pool config
std::atomic<std::size_t> g_desired_threads{0};
// tmwia-lint: allow(nonconst-global) registered singleton: global pool latch
std::atomic<bool> g_global_started{false};

/// Set while this thread runs a parallel_for chunk: a loop issued from
/// inside one runs inline. Dispatching it instead would park the worker
/// on a join whose chunks queue behind the outer chunks, and once every
/// worker held an outer chunk nothing would run.
thread_local bool t_inside_chunk = false;

}  // namespace

bool detail::inside_chunk() { return t_inside_chunk; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lk(mu_);
  while (in_flight_ != 0) cv_idle_.wait(lk);
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

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(lk);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lk(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void detail::parallel_for_chunks(std::size_t begin, std::size_t end,
                                 const std::function<void(std::size_t)>& body,
                                 std::size_t grain) {
  const std::size_t n = end - begin;
  auto& pool = ThreadPool::global();
  // Backend reselection during a phase would hand different workers
  // different kernel vtables; the gate turns that misuse into a loud
  // error at the set_backend call site.
  const bits::kernels::ParallelPhaseGuard kernel_gate;

  const std::size_t chunks = (n + grain - 1) / grain;
  // All join state lives behind one annotated mutex; the earlier
  // split (error mutex + bare-atomic completion count read outside any
  // lock) is exactly the shape the thread-safety analysis rejects.
  struct Join {
    Mutex mu;
    CondVar cv;
    std::size_t done TMWIA_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error TMWIA_GUARDED_BY(mu);
  } join;
  std::atomic<bool> failed{false};  // advisory skip flag only

  // Ambient profile zone: costs deposited inside parallelized player
  // loops attribute to the phase that spawned them, not to an
  // anonymous worker root. Workers swap the caller's zone in for the
  // chunk and restore their own afterwards.
  const obs::Profiler::ZoneId ambient_zone = obs::Profiler::current_zone();

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    pool.submit([&, lo, hi, ambient_zone] {
      const obs::Profiler::ZoneId prev_zone = obs::Profiler::swap_current_zone(ambient_zone);
      t_inside_chunk = true;
      std::exception_ptr err;
      try {
        if (!failed.load(std::memory_order_relaxed)) {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        err = std::current_exception();
      }
      t_inside_chunk = false;
      obs::Profiler::swap_current_zone(prev_zone);
      MutexLock lk(join.mu);
      if (err && !join.first_error) join.first_error = err;
      if (++join.done == chunks) join.cv.notify_all();
    });
  }

  MutexLock lk(join.mu);
  while (join.done != chunks) join.cv.wait(lk);
  if (join.first_error) std::rethrow_exception(join.first_error);
}

}  // namespace tmwia::engine
