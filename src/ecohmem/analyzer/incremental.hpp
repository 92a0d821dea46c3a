#pragma once

/// \file incremental.hpp
/// The analyzer's one event fold: the Paramedir role of turning a trace
/// into per-site records, one slice of the event stream at a time.
///
/// Every analysis goes through `IncrementalAggregator`: `analyze()`
/// ingests a whole in-memory trace in one call, and the serving layer
/// folds v3 blocks as clients send them and answers placement queries
/// between them. Offline, streamed and served results are therefore
/// identical by construction, for any partition of the stream into
/// slices.
///
/// Two folds depend on the whole stream, so their order is fixed here:
///
///  * Uncore readings (which see prefetch fills) are the authoritative
///    bandwidth signal; a trace without them falls back to the PEBS
///    sample weights. Both meters run side by side, the sample meter
///    only until the first uncore reading (after which it is never
///    used), and `finalize()` picks one.
///  * Per-allocation bandwidth (`alloc_bw_sum`) averages the meter over
///    a window that may include *future* traffic, so ingestion records
///    (site, window-start) pairs in stream order and `finalize()`
///    replays them against the finished meter.
///
/// Everything else — the live-object replay, sample attribution against
/// the live objects, the per-site and per-function weight folds —
/// happens in stream order as events arrive.
///
/// Live objects sit in `LiveIndex`, ordered by start address: sorted
/// chunks of at most 128 starts under a sorted vector of chunk minima.
/// A sample resolves with two branch-free binary searches (minima, then
/// one chunk), so its cost does not depend on how predictable the
/// addresses are; an allocation or free shifts the entries of one
/// chunk, and the chunk list only when a chunk splits or empties.
///
/// Not thread-safe: the serving layer serializes access through the
/// session store lock (docs/threading.md). `finalize()` is const and
/// non-destructive, so ingestion can continue after a snapshot.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/memsim/bandwidth_meter.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::analyzer {

/// Folds a time-ordered event stream into analyzer state, slice by
/// slice. Construct with the trace's header tables (the caller keeps
/// them alive — the serving session owns both), `ingest()` each block,
/// `finalize()` whenever a consistent `AnalysisResult` is needed.
class IncrementalAggregator {
 public:
  /// `stacks`/`functions` are the trace header tables events refer
  /// into; both must outlive the aggregator and stay unchanged.
  IncrementalAggregator(const trace::StackTable& stacks, const trace::FunctionTable& functions,
                        AnalyzerOptions options = {});

  /// Folds the next slice of the event stream, continuing where the
  /// previous call stopped. Fails on malformed streams (invalid alloc
  /// stack, unknown/double free); a failure is sticky — the aggregator
  /// is poisoned and every later `ingest()`/`finalize()` reports the
  /// first error.
  Status ingest(const trace::Event* events, std::size_t count);

  /// Convenience overload over a vector slice.
  Status ingest(const std::vector<trace::Event>& events) {
    return ingest(events.data(), events.size());
  }

  /// Events folded so far (across all `ingest()` calls).
  [[nodiscard]] std::uint64_t events_ingested() const { return n_events_; }

  /// First ingest error, empty while healthy.
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Produces the analysis of everything ingested so far: the same
  /// result as `analyze()` over that prefix. Non-destructive: operates
  /// on copies of the accumulators, so ingestion may continue
  /// afterwards. `coverage` stamps the result like
  /// `AnalyzerOptions::coverage` does offline (empty = the ingested
  /// events are the whole trace).
  [[nodiscard]] Expected<AnalysisResult> finalize(trace::TraceCoverage coverage = {}) const;

 private:
  /// One live allocation, keyed by start address in `live_`.
  struct LiveObject {
    Bytes size = 0;
    trace::StackId stack = trace::kInvalidStack;
    Ns alloc_time = 0;
  };

  /// Live objects ordered by start address. Chunks hold sorted starts
  /// and their objects in parallel vectors; `mins_` holds each chunk's
  /// first start, ascending. A chunk that grows past `kChunkCapacity`
  /// splits in two, one that empties is dropped, so no chunk is empty.
  class LiveIndex {
   public:
    /// Inserts the object starting at `start`, replacing the one that
    /// starts there if any (address reuse while live).
    void upsert(std::uint64_t start, const LiveObject& obj);

    /// Copies the object starting at `start` into `out` and removes it;
    /// false if no live object starts there.
    bool take(std::uint64_t start, LiveObject& out);

    /// The object with the greatest start at or below `addr`, its start
    /// stored in `start`; nullptr if every start is above `addr`.
    const LiveObject* floor(std::uint64_t addr, std::uint64_t& start) const;

    /// Calls `fn(object)` for every live object in ascending start order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Chunk& chunk : chunks_) {
        for (const LiveObject& obj : chunk.objects) fn(obj);
      }
    }

   private:
    /// On the 2M-event analyze-churn trace, capacities 64 to 256 time
    /// within run-to-run noise of each other and 1024 is slower.
    static constexpr std::size_t kChunkCapacity = 128;

    struct Chunk {
      std::vector<std::uint64_t> starts;  ///< ascending
      std::vector<LiveObject> objects;    ///< objects[k] starts at starts[k]
    };

    std::vector<std::uint64_t> mins_;  ///< chunks_[c].starts.front(), ascending
    std::vector<Chunk> chunks_;
  };

  /// Accumulator per allocation site; unused slots keep alloc_count 0.
  struct SiteAccum {
    SiteRecord record;            ///< the fields that survive into the result
    Bytes live_bytes = 0;         ///< currently live footprint of this site
    double latency_weight = 0.0;  ///< weights of latency-carrying samples
    double latency_sum = 0.0;     ///< weight * latency
    double alloc_bw_sum = 0.0;    ///< per-allocation system bw, summed in finalize()
  };

  /// Accumulator per traced function (Table VII inputs). Any sample,
  /// store-only ones included, lists its function in the result.
  struct FunctionAccum {
    double samples = 0.0;      ///< weighted load samples
    double latency_sum = 0.0;  ///< weight * latency
    bool touched = false;
  };

  const trace::StackTable* stacks_;
  const trace::FunctionTable* functions_;
  AnalyzerOptions options_;

  memsim::BandwidthMeter uncore_meter_;  ///< fold of uncore readings only
  memsim::BandwidthMeter sample_meter_;  ///< sample fallback, until the first uncore reading
  bool has_uncore_ = false;

  std::uint64_t n_events_ = 0;
  Ns last_time_ = 0;
  double unattributed_ = 0.0;
  std::string error_;  ///< sticky first failure

  LiveIndex live_;  ///< start address -> object
  std::unordered_map<std::uint64_t, std::uint64_t> object_address_;  ///< id -> addr
  std::vector<SiteAccum> sites_;               ///< indexed by stack id
  std::vector<FunctionAccum> function_accum_;  ///< indexed by function id
  /// Function ids past the table (the decoder does not reject them),
  /// ordered so that their "?" names tie-break by id.
  std::map<std::uint32_t, FunctionAccum> functions_past_table_;

  /// Deferred alloc-window bandwidth folds: (site, window start) in
  /// allocation order. Grows with the allocation count, not the event
  /// count.
  std::vector<std::pair<trace::StackId, Ns>> alloc_bw_pending_;
};

}  // namespace ecohmem::analyzer
