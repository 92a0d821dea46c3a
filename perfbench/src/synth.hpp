#pragma once

/// \file synth.hpp
/// Seeded synthetic profile for the trace-only workloads (analyze-churn,
/// serve-mixed): the v3-trace shape the analyzer meets on large
/// applications, which the five Fig. 6 models are too small to produce.
///
/// The generator first draws an application — thousands of allocation
/// sites in three modules, each with a size, a miss density, a store
/// share and a home function — and then the event stream a profiler
/// would record while it runs:
///   - most sites are transient: they allocate again and again, each
///     instance living a random number of kernel windows, so about a
///     tenth of all allocations are live at any time; a few are
///     persistent and live for the whole run;
///   - freed address slots are reused by later allocations of the same
///     size class;
///   - load/store samples fall on live objects in proportion to size x
///     density (boosted for the running function's own sites), and a
///     few percent fall on addresses no object covers;
///   - every kernel window carries periodic uncore bandwidth readings.
/// The same draw also yields `app`, the workload model of that
/// application (one object per site at the site's peak live size, one
/// kernel per function), on which a report's placement is replayed to
/// give the workload's simulated speedup.

#include <cstdint>

#include "ecohmem/runtime/workload.hpp"
#include "ecohmem/trace/events.hpp"

namespace perfbench {

struct SynthSpec {
  std::uint64_t seed = 1;
  std::uint64_t events = 2'000'000;  ///< approximate trace length
  std::size_t sites = 3000;
  std::size_t windows = 400;         ///< kernel executions in the trace
};

struct SynthProfile {
  ecohmem::runtime::Workload app;  ///< the application the trace profiles
  ecohmem::trace::Trace trace;     ///< stack ids are site indices of `app`
};

[[nodiscard]] SynthProfile make_synth_profile(const SynthSpec& spec);

}  // namespace perfbench
