#pragma once

/// \file lockdep.hpp
/// Ranked mutex wrappers + an opt-in runtime lock-order validator.
///
/// docs/threading.md promises a strict lock hierarchy: every production
/// mutex is a *leaf* (no code path acquires a second lock while holding
/// one), and any future non-leaf locks must be acquired in strictly
/// rank-increasing order. The Clang thread-safety analysis
/// (thread_annotations.hpp) checks the *guarded-by* contracts at compile
/// time; this file checks the *ordering* contract at run time, in the
/// style of the Linux kernel's lockdep:
///
///  - `RankedMutex` / `RankedSharedMutex` wrap `std::mutex` /
///    `std::shared_mutex` with a rank and class name from the
///    docs/threading.md lock-rank table.
///  - When `ECOHMEM_LOCKDEP=1` is set in the environment, every
///    acquisition is checked against a per-thread held-lock stack
///    (rank order + leaf rules) and recorded in a global
///    acquisition-order graph whose cycle detection catches inversions
///    that only ever happen on *different* threads. Violations report
///    both acquisition sites (file:line).
///  - When disabled (the default), each lock/unlock pays one relaxed
///    atomic load and a predicted branch — near-zero overhead, no
///    allocation, no global state touched.
///
/// The validator is wired into `ci.sh`: the concurrency suites run with
/// `ECOHMEM_LOCKDEP=1`, where any violation aborts the test. A seeded
/// negative test (tests/common/test_lockdep.cpp) proves the validator
/// fires on a deliberately inverted acquisition.

#include <source_location>
#include <string>

#include <mutex>         // srclint-ok: conc-raw-mutex (the wrapped primitive)
#include <shared_mutex>  // srclint-ok: conc-raw-mutex (the wrapped primitive)

#include "ecohmem/common/thread_annotations.hpp"

namespace ecohmem::common {

namespace lockdep {

/// The lock-rank table (keep in sync with docs/threading.md).
/// Acquisition order must be strictly rank-increasing; every rank below
/// is additionally a *leaf* — no further ranked lock may be acquired
/// while one is held. The serve-layer locks rank below the analyzer and
/// FlexMalloc leaves they sit above architecturally, but they too are
/// leaves: the daemon moves data between its queue, store and registry
/// one lock at a time (docs/threading.md, docs/serving.md).
enum class LockRank : int {
  kServeRegistryShard = 4,  ///< SessionManager shard map (serve/session.*)
  kServeSessionQueue = 6,   ///< per-session bounded ingest queue (serve/session.*)
  kServeSessionStore = 8,   ///< per-session incremental site store (serve/session.*)
  kWorkerPool = 10,         ///< WorkerPool phase hand-off (runtime/worker_pool.hpp)
  kMatcherHr = 20,          ///< CallStackMatcher human-readable path (flexmalloc/matcher.*)
  kMatchCacheShard = 30,    ///< MatchCache shard shared_mutex (flexmalloc/matcher.*)
  kArenaHeap = 40,          ///< per-tier ArenaHeap leaf mutex (flexmalloc/heap_manager.*)
};

/// File:line of an acquisition, captured via std::source_location.
struct LockSite {
  const char* file = "?";
  unsigned line = 0;
};

enum class ViolationKind {
  kRankOrder,    ///< acquired a rank <= a rank already held
  kLeafNesting,  ///< acquired any ranked lock while holding a leaf lock
  kCycle,        ///< acquisition-order graph would become cyclic
  kNotHeld,      ///< assert_held() on a lock this thread does not hold
};

[[nodiscard]] const char* to_string(ViolationKind kind);

/// One detected ordering violation. `acquiring`/`acquiring_site` are the
/// acquisition that tripped the check; `held`/`held_site` identify the
/// conflicting held lock (rank/leaf violations) or the previously
/// recorded opposite-direction edge (cycles).
struct Violation {
  ViolationKind kind = ViolationKind::kRankOrder;
  const char* acquiring = "?";
  const char* held = "?";
  LockSite acquiring_site;
  LockSite held_site;
  std::string message;  ///< fully formatted, carries both sites
};

/// True when the validator is active (ECOHMEM_LOCKDEP=1 in the
/// environment, or forced by set_enabled_for_testing). Reads one
/// relaxed atomic; the environment is consulted once.
[[nodiscard]] bool enabled();

/// Test hook: force the validator on/off regardless of the environment.
void set_enabled_for_testing(bool on);

/// Violation sink. The default handler prints the message to stderr and
/// aborts (so CI runs with ECOHMEM_LOCKDEP=1 fail loudly). Tests install
/// a collector. Returns the previous handler; pass nullptr to restore
/// the default.
using Handler = void (*)(const Violation&);
Handler set_violation_handler(Handler handler);

/// Test hook: clears the global acquisition-order graph and the calling
/// thread's held-lock stack.
void reset_for_testing();

/// Number of ranked locks the calling thread currently holds (0 when
/// the validator is disabled).
[[nodiscard]] std::size_t held_count();

// Internal hooks called by the wrappers; `mutex` is the instance
// identity, `name` its class (the lock-rank table row).
void on_acquire(const void* mutex, const char* name, int rank, bool leaf,
                const std::source_location& where);
void on_release(const void* mutex);
void on_assert_held(const void* mutex, const char* name);

}  // namespace lockdep

/// `std::mutex` with a rank, a class name and lockdep bookkeeping.
/// Satisfies BasicLockable, so it composes with
/// `std::condition_variable_any` and `std::unique_lock`; prefer the
/// `ScopedLock` guard, which captures the acquisition site of the
/// guard's construction rather than a line inside the standard library.
class ECOHMEM_CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(lockdep::LockRank rank, const char* name, bool leaf = true)
      : rank_(static_cast<int>(rank)), leaf_(leaf), name_(name) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock(const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE() {
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, rank_, leaf_, where);
    mu_.lock();
  }

  [[nodiscard]] bool try_lock(
      const std::source_location& where = std::source_location::current())
      ECOHMEM_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, rank_, leaf_, where);
    return true;
  }

  void unlock() ECOHMEM_RELEASE() {
    if (lockdep::enabled()) lockdep::on_release(this);
    mu_.unlock();
  }

  /// Runtime + static assertion that the calling thread holds this
  /// mutex. Use inside condition-variable wait predicates, where the
  /// lock is held by contract but the static analysis cannot see it.
  void assert_held() const ECOHMEM_ASSERT_CAPABILITY(this) {
    if (lockdep::enabled()) lockdep::on_assert_held(this, name_);
  }

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] bool leaf() const { return leaf_; }

 private:
  std::mutex mu_;  // srclint-ok: conc-raw-mutex (this IS the ranked wrapper)
  int rank_;
  bool leaf_;
  const char* name_;
};

/// `std::shared_mutex` with the same rank/lockdep treatment. Shared
/// holds participate in ordering checks exactly like exclusive ones
/// (the documented hierarchy makes no reader exception).
class ECOHMEM_CAPABILITY("shared_mutex") RankedSharedMutex {
 public:
  explicit RankedSharedMutex(lockdep::LockRank rank, const char* name, bool leaf = true)
      : rank_(static_cast<int>(rank)), leaf_(leaf), name_(name) {}

  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock(const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE() {
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, rank_, leaf_, where);
    mu_.lock();
  }

  void unlock() ECOHMEM_RELEASE() {
    if (lockdep::enabled()) lockdep::on_release(this);
    mu_.unlock();
  }

  void lock_shared(const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE_SHARED() {
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, rank_, leaf_, where);
    mu_.lock_shared();
  }

  void unlock_shared() ECOHMEM_RELEASE_SHARED() {
    if (lockdep::enabled()) lockdep::on_release(this);
    mu_.unlock_shared();
  }

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] bool leaf() const { return leaf_; }

 private:
  std::shared_mutex mu_;  // srclint-ok: conc-raw-mutex (this IS the ranked wrapper)
  int rank_;
  bool leaf_;
  const char* name_;
};

/// RAII exclusive guard over a RankedMutex, understood by the Clang
/// thread-safety analysis. Captures the guard's construction site as
/// the acquisition site.
class ECOHMEM_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(RankedMutex& mu,
                      const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(where);
  }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  ~ScopedLock() ECOHMEM_RELEASE_GENERIC() { mu_.unlock(); }

 private:
  RankedMutex& mu_;
};

/// RAII exclusive guard over a RankedSharedMutex (writer side).
class ECOHMEM_SCOPED_CAPABILITY ScopedWriteLock {
 public:
  explicit ScopedWriteLock(RankedSharedMutex& mu,
                           const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(where);
  }

  ScopedWriteLock(const ScopedWriteLock&) = delete;
  ScopedWriteLock& operator=(const ScopedWriteLock&) = delete;

  ~ScopedWriteLock() ECOHMEM_RELEASE_GENERIC() { mu_.unlock(); }

 private:
  RankedSharedMutex& mu_;
};

/// RAII shared guard over a RankedSharedMutex (reader side).
class ECOHMEM_SCOPED_CAPABILITY SharedScopedLock {
 public:
  explicit SharedScopedLock(RankedSharedMutex& mu,
                            const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared(where);
  }

  SharedScopedLock(const SharedScopedLock&) = delete;
  SharedScopedLock& operator=(const SharedScopedLock&) = delete;

  ~SharedScopedLock() ECOHMEM_RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  RankedSharedMutex& mu_;
};

}  // namespace ecohmem::common
