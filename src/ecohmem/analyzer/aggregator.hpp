#pragma once

/// \file aggregator.hpp
/// The Paramedir role: turn a raw trace into per-site records.
///
/// Steps:
///  1. Reconstruct the system bandwidth timeline (uncore readings, or
///     sample weights when the trace has none; `SystemBandwidthFold`).
///  2. Replay allocation/free events in program order to build live
///     address intervals and per-site counts, footprints and lifetimes
///     (first allocation, last free, summed lifetime), attributing each
///     PEBS sample to the object live at its data linear address at that
///     point (and to the enclosing function for Table VII).
///  3. Derive each site's allocation-time and execution-time bandwidth
///     regions (Table II inputs for the bandwidth-aware algorithm).
///
/// There is one implementation of this fold, `IncrementalAggregator`
/// (incremental.hpp); `analyze()` feeds it a whole in-memory trace.

#include <cstdint>
#include <limits>
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
  /// Peak bin of the reconstructed system bandwidth timeline.
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

/// The system bandwidth timeline, rebuilt one event at a time. Uncore
/// readings (which see prefetch fills) are authoritative: each adds
/// `(read_gbs + write_gbs) * period_ns` bytes over `[time - period_ns,
/// time)`. PEBS samples are the fallback, each adding `weight *
/// kCacheLine` bytes over `[time, time + 1)`, until the first uncore
/// reading replaces them. The analyzer's fold and `ecohmem-timeline
/// --trace` both rebuild the timeline here.
class SystemBandwidthFold {
 public:
  static constexpr Ns kUnchanged = std::numeric_limits<Ns>::max();

  explicit SystemBandwidthFold(Ns bin_ns);

  /// Folds the traffic of `event`, event number `index` of the stream.
  /// A non-finite or negative sample or uncore value
  /// (`trace::first_bad_value`) adds nothing and fails with
  /// `trace::describe_bad_value`'s message.
  [[nodiscard]] Status add(std::uint64_t index, const trace::Event& event);

  /// The timeline so far (tier 0): the uncore meter once a reading
  /// arrived, the sample meter before.
  [[nodiscard]] const memsim::BandwidthMeter& meter() const {
    return has_uncore_ ? uncore_ : samples_;
  }
  [[nodiscard]] bool has_uncore() const { return has_uncore_; }

  /// Largest uncore period seen: a later reading reaches back further
  /// than its own time minus this only if its period is larger.
  [[nodiscard]] Ns max_period() const { return max_period_; }

  /// Earliest time at which `meter()` changed since the previous call
  /// (0 when the uncore meter replaced the sample meter), or `kUnchanged`.
  [[nodiscard]] Ns take_earliest_change();

 private:
  memsim::BandwidthMeter uncore_;
  memsim::BandwidthMeter samples_;
  bool has_uncore_ = false;
  Ns max_period_ = 0;
  Ns earliest_change_ = kUnchanged;
};

/// Aggregates `trace` into per-site records. Fails on malformed traces:
/// an alloc with an invalid stack id, a free of an object id that is
/// unknown or already freed, or a sample or uncore reading with a
/// non-finite or negative value (`trace::first_bad_value`).
[[nodiscard]] Expected<AnalysisResult> analyze(const trace::Trace& trace,
                                               const AnalyzerOptions& options = {});

}  // namespace ecohmem::analyzer
