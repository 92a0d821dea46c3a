// srclint fixture: the sanctioned concurrency vocabulary — leaf
// wrappers and condition_variable_any — must scan clean.
// Never compiled; scanned by test_srclint.
#pragma once
#include <condition_variable>

namespace fixture {
class LeafMutexLike {
 public:
  void lock() {}
  void unlock() {}
};
}  // namespace fixture

struct FixtureLeafLocks {
  fixture::LeafMutexLike mu;
  std::condition_variable_any cv;
};
