#pragma once

/// \file aggregator.hpp
/// The Paramedir role: turn a raw trace into per-site records.
///
/// Steps:
///  1. Reconstruct the system bandwidth timeline (uncore readings, or
///     sample weights when the trace has none).
///  2. Replay allocation/free events in program order to build live
///     address intervals and per-site counts/footprints/lifetime windows,
///     attributing each PEBS sample to the object live at its data linear
///     address at that point (and to the enclosing function for
///     Table VII).
///  3. Derive each site's allocation-time and execution-time bandwidth
///     regions (Table II inputs for the bandwidth-aware algorithm).
///
/// There is one implementation of this fold, `IncrementalAggregator`
/// (incremental.hpp); `analyze()` feeds it a whole in-memory trace.

#include <vector>

#include "ecohmem/analyzer/object_record.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/memsim/bandwidth_meter.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::analyzer {

struct AnalyzerOptions {
  /// Peak bandwidth of the PMem-eligible traffic, for region thresholds.
  double peak_pmem_bw_gbs = 26.0;

  /// Bin width of the reconstructed bandwidth timeline.
  Ns bw_bin_ns = 10'000'000;  // 10 ms

  /// Window around each allocation used for the allocation-time
  /// bandwidth signal.
  Ns alloc_window_ns = 50'000'000;  // 50 ms

  /// Trace coverage as reported by the loader (TraceBundle::coverage).
  /// Left empty, the analyzer assumes the events it sees are the whole
  /// trace. Salvage-mode callers pass the bundle's coverage so reports
  /// carry events_seen/events_declared (docs/robustness.md).
  trace::TraceCoverage coverage;
};

struct AnalysisResult {
  std::vector<SiteRecord> sites;
  std::vector<memsim::BandwidthPoint> system_bw;  ///< reconstructed timeline
  double observed_peak_bw_gbs = 0.0;
  std::vector<FunctionProfile> functions;
  Ns trace_end = 0;

  /// Total weighted samples that hit no live object (stack/static data or
  /// attribution error); reported for diagnostics.
  double unattributed_samples = 0.0;

  /// Coverage of the analyzed events relative to what the trace file
  /// declared (full coverage unless the caller analyzed a salvaged
  /// bundle). Stamped into the site table/CSV by site_report.cpp.
  trace::TraceCoverage coverage;
};

/// Aggregates `trace` into per-site records. Fails on malformed traces:
/// an alloc with an invalid stack id, a free of an unknown object id, or
/// a double free (a free whose object's address holds no live object).
[[nodiscard]] Expected<AnalysisResult> analyze(const trace::Trace& trace,
                                               const AnalyzerOptions& options = {});

}  // namespace ecohmem::analyzer
