// srclint fixture: the sanctioned concurrency vocabulary — the
// annotated mutex and condition_variable_any — must scan clean.
// Never compiled; scanned by test_srclint.
#pragma once
#include <condition_variable>

namespace fixture {
class AnnotatedMutexLike {
 public:
  void lock() {}
  void unlock() {}
};
}  // namespace fixture

struct FixtureAnnotatedLocks {
  fixture::AnnotatedMutexLike mu;
  std::condition_variable_any cv;
};
