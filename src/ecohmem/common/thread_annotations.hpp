#pragma once

/// \file thread_annotations.hpp
/// Clang thread-safety-analysis macros (docs/threading.md).
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
///   class ECOHMEM_CAPABILITY("mutex") LeafMutex { ... };
///
///   common::LeafMutex mu_{"my_lock"};
///   std::map<K, V> live_ ECOHMEM_GUARDED_BY(mu_);
///
///   void drain() ECOHMEM_REQUIRES(mu_);   // caller must hold mu_
///
/// The capability-bearing types live in lockdep.hpp (`LeafMutex`,
/// `LeafSharedMutex`) together with the scoped guards the analysis
/// understands (`ScopedLock`, `SharedScopedLock`). New mutex-protected
/// state must carry `ECOHMEM_GUARDED_BY`; see the annotation how-to in
/// docs/threading.md.

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

/// Pointed-to data is protected by the given capability.
#define ECOHMEM_PT_GUARDED_BY(x) ECOHMEM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held (exclusively / shared).
#define ECOHMEM_REQUIRES(...) \
  ECOHMEM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ECOHMEM_REQUIRES_SHARED(...) \
  ECOHMEM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the capability.
#define ECOHMEM_ACQUIRE(...) \
  ECOHMEM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ECOHMEM_ACQUIRE_SHARED(...) \
  ECOHMEM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define ECOHMEM_RELEASE(...) \
  ECOHMEM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ECOHMEM_RELEASE_SHARED(...) \
  ECOHMEM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define ECOHMEM_RELEASE_GENERIC(...) \
  ECOHMEM_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// try_lock-style function: acquires the capability when it returns
/// the given value.
#define ECOHMEM_TRY_ACQUIRE(...) \
  ECOHMEM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define ECOHMEM_TRY_ACQUIRE_SHARED(...) \
  ECOHMEM_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability.
#define ECOHMEM_EXCLUDES(...) ECOHMEM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability; the
/// analysis treats the capability as held afterwards. Used to inform
/// the analysis inside condition-variable wait predicates, where the
/// lock is held by contract but the analysis cannot prove it.
#define ECOHMEM_ASSERT_CAPABILITY(x) \
  ECOHMEM_THREAD_ANNOTATION(assert_capability(x))
#define ECOHMEM_ASSERT_SHARED_CAPABILITY(x) \
  ECOHMEM_THREAD_ANNOTATION(assert_shared_capability(x))

/// Function returns a reference to the given capability.
#define ECOHMEM_RETURN_CAPABILITY(x) ECOHMEM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for functions the analysis cannot follow (e.g. the
/// worker pool's condition-variable phase hand-off). Use sparingly and
/// say why at the use site.
#define ECOHMEM_NO_THREAD_SAFETY_ANALYSIS \
  ECOHMEM_THREAD_ANNOTATION(no_thread_safety_analysis)
