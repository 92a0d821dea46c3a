#pragma once

/// \file lockdep.hpp
/// Leaf mutex wrappers + an opt-in runtime check of the leaf rule.
///
/// docs/threading.md promises that every production mutex is a *leaf*:
/// no code path acquires a second lock while holding one. A thread that
/// only ever holds one lock cannot be part of a lock-order cycle, so the
/// leaf rule is the whole ordering contract. The Clang thread-safety
/// analysis (thread_annotations.hpp) checks the *guarded-by* contracts at
/// compile time; this file checks the leaf rule at run time:
///
///  - `LeafMutex` / `LeafSharedMutex` wrap `std::mutex` /
///    `std::shared_mutex` with a class name from the docs/threading.md
///    lock table.
///  - When `ECOHMEM_LOCKDEP=1` is set in the environment, every
///    acquisition is checked against a per-thread held-lock list: taking
///    any wrapped lock while holding one is a violation that reports
///    both acquisition sites (file:line). `assert_held` checks the list
///    too.
///  - When disabled (the default), each lock/unlock pays one relaxed
///    atomic load and a predicted branch — no allocation, no global
///    state touched.
///
/// The validator is wired into `ci.sh`: the concurrency suites run with
/// `ECOHMEM_LOCKDEP=1`, where any violation aborts the test. Seeded
/// negative tests (tests/common/test_lockdep.cpp) prove it fires.

#include <source_location>
#include <string>

#include <mutex>         // srclint-ok: conc-raw-mutex (the wrapped primitive)
#include <shared_mutex>  // srclint-ok: conc-raw-mutex (the wrapped primitive)

#include "ecohmem/common/thread_annotations.hpp"

namespace ecohmem::common {

namespace lockdep {

/// File:line of an acquisition, captured via std::source_location.
struct LockSite {
  const char* file = "?";
  unsigned line = 0;
};

enum class ViolationKind {
  kLeafNesting,  ///< acquired a lock while holding one (or the same one)
  kNotHeld,      ///< assert_held() on a lock this thread does not hold
};

[[nodiscard]] const char* to_string(ViolationKind kind);

/// One detected violation. `acquiring`/`acquiring_site` are the
/// acquisition that tripped the check; `held`/`held_site` identify the
/// lock already held.
struct Violation {
  ViolationKind kind = ViolationKind::kLeafNesting;
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

/// Test hook: clears the calling thread's held-lock list.
void reset_for_testing();

/// Number of wrapped locks the calling thread currently holds (0 when
/// the validator is disabled).
[[nodiscard]] std::size_t held_count();

// Internal hooks called by the wrappers; `mutex` is the instance
// identity, `name` its class (the lock table row).
void on_acquire(const void* mutex, const char* name, const std::source_location& where);
void on_release(const void* mutex);
void on_assert_held(const void* mutex, const char* name);

}  // namespace lockdep

/// `std::mutex` with a class name and leaf-rule bookkeeping.
/// Satisfies BasicLockable, so it composes with
/// `std::condition_variable_any` and `std::unique_lock`; prefer the
/// `ScopedLock` guard, which captures the acquisition site of the
/// guard's construction rather than a line inside the standard library.
class ECOHMEM_CAPABILITY("mutex") LeafMutex {
 public:
  explicit LeafMutex(const char* name) : name_(name) {}

  LeafMutex(const LeafMutex&) = delete;
  LeafMutex& operator=(const LeafMutex&) = delete;

  void lock(const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE() {
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, where);
    mu_.lock();
  }

  [[nodiscard]] bool try_lock(
      const std::source_location& where = std::source_location::current())
      ECOHMEM_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, where);
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

 private:
  std::mutex mu_;  // srclint-ok: conc-raw-mutex (this IS the leaf wrapper)
  const char* name_;
};

/// `std::shared_mutex` with the same leaf-rule treatment. Shared holds
/// count exactly like exclusive ones (the leaf rule makes no reader
/// exception).
class ECOHMEM_CAPABILITY("shared_mutex") LeafSharedMutex {
 public:
  explicit LeafSharedMutex(const char* name) : name_(name) {}

  LeafSharedMutex(const LeafSharedMutex&) = delete;
  LeafSharedMutex& operator=(const LeafSharedMutex&) = delete;

  void lock(const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE() {
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, where);
    mu_.lock();
  }

  void unlock() ECOHMEM_RELEASE() {
    if (lockdep::enabled()) lockdep::on_release(this);
    mu_.unlock();
  }

  void lock_shared(const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE_SHARED() {
    if (lockdep::enabled()) lockdep::on_acquire(this, name_, where);
    mu_.lock_shared();
  }

  void unlock_shared() ECOHMEM_RELEASE_SHARED() {
    if (lockdep::enabled()) lockdep::on_release(this);
    mu_.unlock_shared();
  }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;  // srclint-ok: conc-raw-mutex (this IS the leaf wrapper)
  const char* name_;
};

/// RAII exclusive guard over a LeafMutex, understood by the Clang
/// thread-safety analysis. Captures the guard's construction site as
/// the acquisition site.
class ECOHMEM_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(LeafMutex& mu,
                      const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(where);
  }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  ~ScopedLock() ECOHMEM_RELEASE_GENERIC() { mu_.unlock(); }

 private:
  LeafMutex& mu_;
};

/// RAII exclusive guard over a LeafSharedMutex (writer side).
class ECOHMEM_SCOPED_CAPABILITY ScopedWriteLock {
 public:
  explicit ScopedWriteLock(LeafSharedMutex& mu,
                           const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(where);
  }

  ScopedWriteLock(const ScopedWriteLock&) = delete;
  ScopedWriteLock& operator=(const ScopedWriteLock&) = delete;

  ~ScopedWriteLock() ECOHMEM_RELEASE_GENERIC() { mu_.unlock(); }

 private:
  LeafSharedMutex& mu_;
};

/// RAII shared guard over a LeafSharedMutex (reader side).
class ECOHMEM_SCOPED_CAPABILITY SharedScopedLock {
 public:
  explicit SharedScopedLock(LeafSharedMutex& mu,
                            const std::source_location& where = std::source_location::current())
      ECOHMEM_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared(where);
  }

  SharedScopedLock(const SharedScopedLock&) = delete;
  SharedScopedLock& operator=(const SharedScopedLock&) = delete;

  ~SharedScopedLock() ECOHMEM_RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  LeafSharedMutex& mu_;
};

}  // namespace ecohmem::common
