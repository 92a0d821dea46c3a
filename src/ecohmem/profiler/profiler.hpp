#pragma once

/// \file profiler.hpp
/// The Extrae role: data-oriented profiling of a (simulated) run.
///
/// Attached to the execution engine as an observer, the profiler:
///   - records every allocation/reallocation/deallocation with size,
///     call stack (interned in BOM form, §VI) and returned address —
///     the instrumentation of §IV-A,
///   - subsamples the LLC load-miss stream and the store stream at a
///     fixed rate (default 100 Hz, the paper's PEBS configuration),
///     attaching a data linear address within the touched object and a
///     per-sample weight equal to the inverse sampling ratio,
///   - emits enter/leave markers per kernel so samples are attributable
///     to functions (Table VII).
///
/// Events are emitted in time order as they are recorded. Each kernel's
/// samples are drawn into a scratch buffer, ordered by time, and merged
/// with its uncore readings between the kernel's enter and leave
/// markers. Ties keep append order: samples in draw order (loads, then
/// stores), then uncore readings. Only hook calls whose times go
/// backwards (possible when driving the hooks by hand, never from the
/// engine) leave the trace unordered; `take_trace()` then restores the
/// order with a stable sort.
///
/// Sampling is deterministic given the seed; the sampling-noise property
/// tests (DESIGN.md D5) sweep the seed.

#include <vector>

#include "ecohmem/common/rng.hpp"
#include "ecohmem/runtime/observer.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::profiler {

struct ProfilerOptions {
  double sample_rate_hz = 100.0;  ///< per counter (loads and stores)
  bool sample_loads = true;       ///< MEM_LOAD_RETIRED.L3_MISS analogue
  bool sample_stores = true;      ///< MEM_INST_RETIRED.ALL_STORES analogue (§V)
  bool sample_uncore = true;      ///< periodic IMC bandwidth readings
  std::uint64_t seed = 0x5eed;
  double latency_jitter = 0.2;    ///< +/- fraction applied to sampled latency
};

class Profiler final : public runtime::ExecutionObserver {
 public:
  explicit Profiler(ProfilerOptions options = {});

  void on_alloc(Ns time, std::uint64_t object_uid, std::uint64_t address, Bytes size,
                const bom::CallStack& stack) override;
  void on_free(Ns time, std::uint64_t object_uid) override;
  void on_kernel(const runtime::KernelObservation& observation) override;

  /// Finishes the trace and hands it over (the profiler can be reused
  /// afterwards for another run). The events are already in time order
  /// unless a hook call went back in time; only then does this run a
  /// stable sort by time, which keeps append order among equal times.
  [[nodiscard]] trace::Trace take_trace();

  /// The trace recorded so far. Time-ordered at every point of an
  /// engine-driven run; see `take_trace()` for hand-driven hooks.
  [[nodiscard]] const trace::Trace& trace() const { return trace_; }

 private:
  void draw_samples(const runtime::KernelObservation& obs, bool stores,
                    std::uint32_t function_id);
  void draw_uncore(const runtime::KernelObservation& obs);
  void order_samples(Ns start, Ns span);
  template <typename E>
  void append(const E& event);

  ProfilerOptions options_;
  trace::Trace trace_;
  Rng rng_;
  double load_sample_carry_ = 0.0;
  double store_sample_carry_ = 0.0;
  Ns last_time_ = 0;          ///< time of the last appended event
  bool out_of_order_ = false;  ///< some append went back in time

  // Per-kernel scratch, kept to reuse its capacity.
  std::vector<double> cdf_;
  std::vector<trace::SampleEvent> samples_;
  std::vector<trace::SampleEvent> ordered_;
  std::vector<std::size_t> bucket_start_;
  std::vector<trace::UncoreBwEvent> uncore_;
};

}  // namespace ecohmem::profiler
