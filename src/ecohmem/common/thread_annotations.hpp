#pragma once

/// \file thread_annotations.hpp
/// The one lock type of the tree and its Clang thread-safety-analysis
/// macros (docs/threading.md).
///
/// The locking contracts of the concurrent layers — the serve daemon's
/// session and registry locks, the worker pool's phase hand-off — are
/// machine-checked at compile time by Clang's `-Wthread-safety`
/// analysis. The `clang-tsa` CMake preset builds the tree with the
/// analysis promoted to an error; under GCC (which has no equivalent
/// analysis) every macro expands to nothing, so the annotations cost
/// nothing outside that preset.
///
/// Usage mirrors the upstream Clang/Abseil idiom:
///
///   common::Mutex mu_;
///   std::map<K, V> live_ ECOHMEM_GUARDED_BY(mu_);
///
///   common::ScopedLock lock(mu_);   // the analysis sees mu_ held
///
/// Every lock obeys the leaf rule: no thread takes a lock while holding
/// one. Code review and the analysis check it at compile time;
/// ThreadSanitizer's lock-order-inversion report and the ctest timeout
/// catch a violation at run time (docs/threading.md). New
/// mutex-protected state must carry `ECOHMEM_GUARDED_BY`.

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define ECOHMEM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ECOHMEM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability (a mutex-like type).
#define ECOHMEM_CAPABILITY(x) ECOHMEM_THREAD_ANNOTATION(capability(x))

/// Marks a class as a scoped (RAII) capability guard.
#define ECOHMEM_SCOPED_CAPABILITY ECOHMEM_THREAD_ANNOTATION(scoped_lockable)

/// Data member is protected by the given capability.
#define ECOHMEM_GUARDED_BY(x) ECOHMEM_THREAD_ANNOTATION(guarded_by(x))

/// Function acquires / releases the capability.
#define ECOHMEM_ACQUIRE(...) \
  ECOHMEM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ECOHMEM_RELEASE(...) \
  ECOHMEM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The analysis treats the capability as held after the call. Used
/// inside condition-variable wait predicates, where the lock is held by
/// contract but the analysis cannot prove it.
#define ECOHMEM_ASSERT_CAPABILITY(x) \
  ECOHMEM_THREAD_ANNOTATION(assert_capability(x))

namespace ecohmem::common {

/// `std::mutex` as a capability the analysis understands. BasicLockable,
/// so `std::condition_variable_any` waits on it directly.
class ECOHMEM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ECOHMEM_ACQUIRE() { mu_.lock(); }
  void unlock() ECOHMEM_RELEASE() { mu_.unlock(); }

  /// Tells the analysis that the calling thread holds this mutex; no
  /// run-time check. Call it inside condition-variable wait predicates.
  void assert_held() const ECOHMEM_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII exclusive guard over a `Mutex`, understood by the analysis.
class ECOHMEM_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mu) ECOHMEM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  ~ScopedLock() ECOHMEM_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace ecohmem::common
