#pragma once

/// \file worker_pool.hpp
/// A small fork-join worker pool, used by `TraceReader::read_all` to
/// decode v3 trace blocks in parallel.
///
/// The pool offers exactly one primitive: `run(fn)` executes
/// `fn(worker_index)` on every worker and returns when all of them have
/// finished. Workers are long-lived — one spawn per pool, not per `run`.
///
/// Thread safety: `run` must be called from one coordinating thread at a
/// time. The pool uses a leaf mutex + condition variables only for
/// phase hand-off (lock table: docs/threading.md); work
/// partitioning inside `fn` is the caller's job (the reader strides
/// blocks by worker index).
///
/// Exceptions: a task that throws on a worker does not crash or deadlock
/// the pool. The first exception (by worker completion order) is
/// captured and rethrown from `run` on the coordinating thread after
/// every worker has finished its slice; the pool stays usable for
/// subsequent `run` calls and joins cleanly on destruction.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "ecohmem/common/lockdep.hpp"
#include "ecohmem/common/thread_annotations.hpp"

namespace ecohmem::runtime {

/// Fixed-size fork-join pool; see the file comment for the usage model.
class WorkerPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit WorkerPool(std::size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      common::ScopedLock lock(mu_);
      stop_ = true;
      ++generation_;
    }
    work_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Number of workers.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs `task(worker_index)` on every worker; blocks until all return.
  /// `task` must partition its own work by the given index (0..size()-1).
  /// If any worker's slice threw, the first captured exception is
  /// rethrown here once every worker has finished (so no worker is still
  /// touching caller state when the exception propagates).
  void run(const std::function<void(std::size_t)>& task) {
    {
      common::ScopedLock lock(mu_);
      task_ = &task;
      pending_ = workers_.size();
      first_error_ = nullptr;
      ++generation_;
    }
    work_cv_.notify_all();
    std::exception_ptr error;
    {
      common::ScopedLock lock(mu_);
      // condition_variable_any drives mu_ directly (LeafMutex is
      // BasicLockable), so lockdep sees every release/reacquire of the
      // wait loop. The predicate asserts the capability for the static
      // analysis — the wait contract guarantees the lock is held.
      done_cv_.wait(mu_, [this] {
        mu_.assert_held();
        return pending_ == 0;
      });
      task_ = nullptr;
      error = first_error_;
      first_error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void worker_loop(std::size_t index) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* task = nullptr;
      {
        common::ScopedLock lock(mu_);
        work_cv_.wait(mu_, [&, this] {
          mu_.assert_held();
          return stop_ || generation_ != seen;
        });
        if (stop_) return;
        seen = generation_;
        task = task_;
      }
      std::exception_ptr error;
      if (task != nullptr) {
        try {
          (*task)(index);
        } catch (...) {
          error = std::current_exception();
        }
      }
      {
        common::ScopedLock lock(mu_);
        if (error && !first_error_) first_error_ = error;
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> workers_;
  /// Phase hand-off leaf lock (lock table: docs/threading.md). Never
  /// held while a task runs, so tasks may take any leaf lock.
  common::LeafMutex mu_{"worker_pool"};
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  const std::function<void(std::size_t)>* task_ ECOHMEM_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ ECOHMEM_GUARDED_BY(mu_) = 0;
  std::size_t pending_ ECOHMEM_GUARDED_BY(mu_) = 0;
  bool stop_ ECOHMEM_GUARDED_BY(mu_) = false;
  /// First exception any worker's slice threw this phase.
  std::exception_ptr first_error_ ECOHMEM_GUARDED_BY(mu_);
};

}  // namespace ecohmem::runtime
