// Thread-safety capability annotations + annotated locking primitives.
//
// Wraps Clang's Thread Safety Analysis attributes (-Wthread-safety) so
// the repo's lock and ownership discipline is *statically checkable*
// instead of resting on comments and TSan runs. Under any compiler
// without the attributes (GCC) every macro expands to nothing, so the
// annotations are free documentation there and enforced contracts under
// Clang (wired up as -DTMWIA_THREAD_SAFETY=ON, the default when the
// compiler supports -Wthread-safety).
//
// Vocabulary (names follow the canonical Clang mock header so the
// attributes read like the upstream documentation):
//   TMWIA_CAPABILITY(x)        class is a capability (a lock)
//   TMWIA_SCOPED_CAPABILITY    RAII type that acquires in ctor/releases in dtor
//   TMWIA_GUARDED_BY(mu)       member may only be touched holding mu
//   TMWIA_PT_GUARDED_BY(mu)    pointee may only be touched holding mu
//   TMWIA_REQUIRES(mu)         function must be called with mu held
//   TMWIA_ACQUIRE(...)/TMWIA_RELEASE(...)   lock/unlock side effects
//   TMWIA_EXCLUDES(mu)         function must NOT be called with mu held
//   TMWIA_ASSERT_CAPABILITY(mu)  runtime assertion that mu is held
//   TMWIA_RETURN_CAPABILITY(mu)  function returns a reference to mu
//   TMWIA_NO_THREAD_SAFETY_ANALYSIS  opt a function body out entirely
//
// std::mutex is not an annotated capability in libstdc++, so guarded
// members would be uncheckable through it. Concurrent code in this repo
// therefore uses the annotated wrappers below:
//   support::Mutex      an annotated std::mutex (a TMWIA_CAPABILITY)
//   support::MutexLock  scoped lock over a Mutex (RAII, condition-wait ready)
//   support::CondVar    condition variable waiting on a MutexLock
//
// Condition waits and the analysis: Clang analyzes lambda bodies
// without knowing the enclosing lock is held, so predicate-lambda waits
// (`cv.wait(lk, [&]{ return guarded_; })`) do not typecheck against
// guarded state. Write the explicit loop instead — it is equivalent and
// analyzable:
//   support::MutexLock lk(mu_);
//   while (!guarded_ready_) cv_.wait(lk);
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define TMWIA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TMWIA_THREAD_ANNOTATION(x)  // no-op: GCC has no thread-safety analysis
#endif

#define TMWIA_CAPABILITY(x) TMWIA_THREAD_ANNOTATION(capability(x))
#define TMWIA_SCOPED_CAPABILITY TMWIA_THREAD_ANNOTATION(scoped_lockable)
#define TMWIA_GUARDED_BY(x) TMWIA_THREAD_ANNOTATION(guarded_by(x))
#define TMWIA_PT_GUARDED_BY(x) TMWIA_THREAD_ANNOTATION(pt_guarded_by(x))
#define TMWIA_REQUIRES(...) TMWIA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TMWIA_ACQUIRE(...) TMWIA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TMWIA_RELEASE(...) TMWIA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TMWIA_EXCLUDES(...) TMWIA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define TMWIA_ASSERT_CAPABILITY(x) TMWIA_THREAD_ANNOTATION(assert_capability(x))
#define TMWIA_RETURN_CAPABILITY(x) TMWIA_THREAD_ANNOTATION(lock_returned(x))
#define TMWIA_NO_THREAD_SAFETY_ANALYSIS TMWIA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tmwia::support {

class CondVar;
class MutexLock;

/// std::mutex as a Clang thread-safety capability. Same cost, same
/// semantics; the only addition is that GUARDED_BY members become
/// checkable. It is locked only through MutexLock.
class TMWIA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped lock over a Mutex (the annotated lock_guard). Holds a
/// std::unique_lock internally so CondVar can wait on it.
class TMWIA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TMWIA_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() TMWIA_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with support::Mutex. wait() takes the
/// MutexLock by reference; write waits as explicit while-loops over the
/// guarded predicate (see the header comment) so the analysis can see
/// the lock is held when the predicate reads guarded state.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lk) { cv_.wait(lk.lock_); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tmwia::support
