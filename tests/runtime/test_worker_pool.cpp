// Edge-case tests for the fork-join WorkerPool (runtime/worker_pool.hpp):
// zero-work phases, more workers than tasks, repeated runs, and
// exception propagation without deadlock or thread leak. The suite name
// carries "Concurrency" so ci.sh's TSan filter picks these up.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "ecohmem/runtime/worker_pool.hpp"

namespace ecohmem::runtime {
namespace {

TEST(WorkerPoolConcurrency, ZeroThreadsClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> calls{0};
  pool.run([&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(WorkerPoolConcurrency, RunWithNoWorkReturns) {
  WorkerPool pool(4);
  // A task body that does nothing per worker: the phase must still
  // complete (all workers rendezvous on an empty slice).
  for (int i = 0; i < 100; ++i) {
    pool.run([](std::size_t) {});
  }
}

TEST(WorkerPoolConcurrency, MoreWorkersThanTasks) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run([&](std::size_t w) {
    // Only the first 3 workers find work; the rest return immediately.
    if (w < hits.size()) hits[w].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolConcurrency, EveryWorkerIndexRunsExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> counts(pool.size());
  for (int round = 0; round < 50; ++round) {
    pool.run([&](std::size_t w) { counts[w].fetch_add(1); });
  }
  for (auto& c : counts) EXPECT_EQ(c.load(), 50);
}

TEST(WorkerPoolConcurrency, ExceptionPropagatesToCaller) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.run([](std::size_t w) {
        if (w == 2) throw std::runtime_error("worker 2 failed");
      }),
      std::runtime_error);
}

TEST(WorkerPoolConcurrency, FirstExceptionWinsAndAllWorkersFinish) {
  WorkerPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run([&](std::size_t w) {
      if (w % 2 == 0) throw std::runtime_error("even worker failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "even worker failed");
  }
  // The throw surfaces only after every worker finished its slice.
  EXPECT_EQ(completed.load(), 2);
}

TEST(WorkerPoolConcurrency, PoolSurvivesExceptionAndRunsAgain) {
  WorkerPool pool(3);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.run([](std::size_t) { throw std::logic_error("boom"); }),
                 std::logic_error);
    std::atomic<int> calls{0};
    pool.run([&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 3);
  }
  // Destructor joins cleanly after all of the above — no leaked or
  // wedged worker thread (a wedge would hang the test).
}

}  // namespace
}  // namespace ecohmem::runtime
