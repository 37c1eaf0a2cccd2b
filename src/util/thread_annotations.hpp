// Clang Thread Safety Analysis wrappers (DESIGN.md §13).
//
// Locking discipline in this repo is a *compile-time* property: every
// mutex is an imobif::util::Mutex (a capability), every piece of state it
// protects carries IMOBIF_GUARDED_BY(mu), and every function that needs
// the lock held says so with IMOBIF_REQUIRES(mu). On clang,
// -Werror=thread-safety (IMOBIF_THREAD_SAFETY=ON) turns any violation —
// touching guarded state without the lock, releasing a lock that is not
// held, forgetting a REQUIRES on a helper — into a build error. On other
// compilers the annotations expand to nothing and the wrappers are
// zero-overhead shims over <mutex>.
//
// Raw std::mutex / std::condition_variable members are banned everywhere
// in src/ by the linter (tools/imobif_lint.py, rule raw-mutex):
// a raw mutex is invisible to the analysis, so a guard that nobody
// annotates is a guard nobody checks. This header is the single place
// the raw primitives may appear.
//
// The macro set follows the canonical capability vocabulary from the
// clang documentation; only the subset this codebase uses is defined.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define IMOBIF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define IMOBIF_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define IMOBIF_CAPABILITY(x) IMOBIF_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define IMOBIF_SCOPED_CAPABILITY IMOBIF_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define IMOBIF_GUARDED_BY(x) IMOBIF_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define IMOBIF_PT_GUARDED_BY(x) IMOBIF_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and keeps
/// them held).
#define IMOBIF_REQUIRES(...) \
  IMOBIF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define IMOBIF_ACQUIRE(...) \
  IMOBIF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (no args on a scoped
/// capability's destructor: releases everything the object holds).
#define IMOBIF_RELEASE(...) \
  IMOBIF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts acquisition; first argument is the success value.
#define IMOBIF_TRY_ACQUIRE(...) \
  IMOBIF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define IMOBIF_EXCLUDES(...) \
  IMOBIF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch: disables the analysis inside one function body. Use only
/// where the analysis cannot follow the code (none needed so far).
#define IMOBIF_NO_THREAD_SAFETY_ANALYSIS \
  IMOBIF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace imobif::util {

/// std::mutex as an annotated capability. Prefer MutexLock over manual
/// lock()/unlock() pairs; the explicit methods exist for the rare
/// split-scope pattern and keep the analysis informed either way.
class IMOBIF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() IMOBIF_ACQUIRE() { mu_.lock(); }
  void unlock() IMOBIF_RELEASE() { mu_.unlock(); }
  bool try_lock() IMOBIF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // the one blessed raw-mutex member (see file comment)
};

/// RAII lock over a Mutex; the analysis tracks the capability for the
/// scope's extent exactly like std::lock_guard would take it at runtime.
class IMOBIF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) IMOBIF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() IMOBIF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to the annotated Mutex. Built on
/// std::condition_variable_any (Mutex is a BasicLockable), which costs an
/// extra internal mutex per CV — irrelevant on the one wait path this
/// repo has (the pool's idle wait), and in exchange every wait site
/// states its lock requirement in the signature.
///
/// There are deliberately no predicate overloads: a predicate lambda
/// reading guarded state is analyzed as its own function, where the
/// capability is not visibly held, so clang would (correctly) reject it.
/// Write the standard explicit loop instead:
///
///   MutexLock lock(mu_);
///   while (!stop_) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires before returning.
  void wait(Mutex& mu) IMOBIF_REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace imobif::util
