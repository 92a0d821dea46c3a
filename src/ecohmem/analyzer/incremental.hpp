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
///  * The system bandwidth timeline (`SystemBandwidthFold`): uncore
///    readings are the authoritative signal, and a trace without them
///    falls back to the PEBS sample weights.
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
/// An allocation at the start of a live object (address reuse while
/// live, which the profiler never emits) takes that address in the
/// index, so samples there resolve to the new object; the displaced
/// object stays live, set aside by id, until its own free closes its
/// own window. Objects still displaced at `finalize()` close at the
/// last event time like the live ones, after them, in id order.
///
/// A snapshot pays only for what changed since the previous one. The
/// bandwidth averages of windows whose meter bins all lie below a fold
/// horizon (`last_time_` minus the largest uncore period seen, rounded
/// down to a bin) cannot change any more: `finalize()` folds each
/// site's closed live windows (in free order) and allocation windows
/// (in allocation order) up to the first one that reaches the horizon,
/// keeps the running sums, and on the next call continues from there.
/// The windows past them and those of live objects are averaged for
/// that result only, in the same order. Every average and every `+=`
/// runs once, on the same bins, in the same order as a fresh fold, so
/// the result is bit-identical by construction. A meter change below
/// the horizon (a reading whose period reaches back further than any
/// before, a timestamp going backwards, the switch from the sample
/// meter to the uncore meter) drops what was carried, and that
/// `finalize()` starts from zero.
///
/// Not thread-safe: the serving layer serializes access through the
/// session store lock (docs/threading.md). `finalize()` only extends
/// what it carries, so ingestion can continue after a snapshot.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/common/expected.hpp"
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
  /// stack, unknown/double free, a non-finite or negative sample or
  /// uncore value per `trace::first_bad_value`, reported with its event
  /// index); a failure is sticky — the aggregator
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
  /// result as `analyze()` over that prefix. Ingestion may continue
  /// afterwards; the window folds below the horizon are kept for the
  /// next call. `coverage` stamps the result like
  /// `AnalyzerOptions::coverage` does offline (empty = the ingested
  /// events are the whole trace).
  [[nodiscard]] Expected<AnalysisResult> finalize(trace::TraceCoverage coverage = {});

 private:
  /// One live allocation, keyed by start address in `live_`.
  struct LiveObject {
    Bytes size = 0;
    trace::StackId stack = trace::kInvalidStack;
    Ns alloc_time = 0;
    std::uint64_t id = 0;
  };

  /// Live objects ordered by start address. Chunks hold sorted starts
  /// and their objects in parallel vectors; `mins_` holds each chunk's
  /// first start, ascending. A chunk that grows past `kChunkCapacity`
  /// splits in two, one that empties is dropped, so no chunk is empty.
  class LiveIndex {
   public:
    /// Inserts the object starting at `start`. If one already starts
    /// there (address reuse while live), it is replaced, copied into
    /// `displaced` first, and the call returns true.
    bool upsert(std::uint64_t start, const LiveObject& obj, LiveObject& displaced);

    /// Copies the object starting at `start` into `out` and removes it;
    /// false if no object with id `id` starts there.
    bool take(std::uint64_t start, std::uint64_t id, LiveObject& out);

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

  /// What finalize() has folded of one site below the fold horizon.
  struct SiteFolds {
    double alloc_bw_sum = 0.0;    ///< system bw of the folded allocation windows, summed
    std::size_t closed = 0;       ///< SiteAccum::closed[0, closed) are folded
    double exec_weighted = 0.0;   ///< their system bw times duration, summed
    double exec_duration = 0.0;   ///< their durations, summed
  };

  /// Accumulator per allocation site; unused slots keep alloc_count 0.
  struct SiteAccum {
    SiteRecord record;            ///< the fields that survive into the result
    Bytes live_bytes = 0;         ///< currently live footprint of this site
    double latency_weight = 0.0;  ///< weights of latency-carrying samples
    double latency_sum = 0.0;     ///< weight * latency
    std::vector<LiveWindow> closed;  ///< windows of freed objects, in free order
    SiteFolds folds;
  };

  /// Accumulator per traced function (Table VII inputs). Any sample,
  /// store-only ones included, lists its function in the result.
  struct FunctionAccum {
    double samples = 0.0;      ///< weighted load samples
    double latency_sum = 0.0;  ///< weight * latency
    bool touched = false;
  };

  /// Forgets every fold finalize() carries. Called when the meter
  /// changed below the fold horizon.
  void drop_folds();

  const trace::StackTable* stacks_;
  const trace::FunctionTable* functions_;
  AnalyzerOptions options_;

  SystemBandwidthFold bandwidth_;

  /// Bin-aligned time below which the carried folds read the meter;
  /// 0 while nothing is carried.
  Ns fold_horizon_ = 0;

  std::uint64_t n_events_ = 0;
  Ns last_time_ = 0;
  double unattributed_ = 0.0;
  std::string error_;  ///< sticky first failure

  LiveIndex live_;  ///< start address -> object
  std::unordered_map<std::uint64_t, std::uint64_t> object_address_;  ///< id -> addr
  /// Live objects displaced from `live_` by address reuse, by id (an id
  /// allocated twice while live may appear twice; the older goes first).
  std::multimap<std::uint64_t, LiveObject> displaced_;
  std::vector<SiteAccum> sites_;               ///< indexed by stack id
  std::vector<FunctionAccum> function_accum_;  ///< indexed by function id
  /// Function ids past the table (the decoder does not reject them),
  /// ordered so that their "?" names tie-break by id.
  std::map<std::uint32_t, FunctionAccum> functions_past_table_;

  /// Deferred alloc-window bandwidth folds: (site, window start) in
  /// allocation order. Grows with the allocation count, not the event
  /// count.
  std::vector<std::pair<trace::StackId, Ns>> alloc_bw_pending_;
  /// alloc_bw_pending_[0, alloc_folded_) are in the sites' folds.
  std::size_t alloc_folded_ = 0;
};

}  // namespace ecohmem::analyzer
