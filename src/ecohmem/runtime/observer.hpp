#pragma once

/// \file observer.hpp
/// Execution observation hooks — where the profiler (Extrae role) taps in.
///
/// The engine notifies the observer of every allocation/free (with the
/// captured call stack, like the LD_PRELOAD hook sees) and of every kernel
/// execution with the resolved per-object miss counts and latencies (the
/// ground-truth stream the PEBS sampler subsamples).

#include <vector>

#include "ecohmem/bom/frame.hpp"
#include "ecohmem/common/units.hpp"
#include "ecohmem/runtime/workload.hpp"

namespace ecohmem::runtime {

/// Ground truth for one object during one kernel execution.
struct ObjectKernelSample {
  std::size_t object = 0;          ///< workload object index
  std::uint64_t address = 0;       ///< current base address
  Bytes size = 0;
  double load_misses = 0.0;         ///< LLC load misses this kernel
  double store_misses = 0.0;        ///< store traffic reaching memory
  double store_instructions = 0.0;  ///< ALL_STORES stream (PEBS store samples)
  double avg_load_latency_ns = 0.0;
};

struct KernelObservation {
  Ns start = 0;
  Ns end = 0;
  const KernelSpec* kernel = nullptr;
  std::vector<ObjectKernelSample> objects;

  /// Total memory traffic of the kernel across all tiers, including
  /// prefetch fills — what an uncore IMC counter would integrate.
  double total_read_bytes = 0.0;
  double total_write_bytes = 0.0;
};

/// Receives the replay event stream.
///
/// \note The engine invokes all hooks from the replaying thread, in
/// program order — the trace is an ordered artifact. Implementations
/// need no internal locking.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  /// `object_uid` is unique per allocation instance (re-allocations of the
  /// same workload object get fresh uids, like real pointers do).
  virtual void on_alloc(Ns time, std::uint64_t object_uid, std::uint64_t address, Bytes size,
                        const bom::CallStack& stack) = 0;
  virtual void on_free(Ns time, std::uint64_t object_uid) = 0;
  virtual void on_kernel(const KernelObservation& observation) = 0;
};

}  // namespace ecohmem::runtime
