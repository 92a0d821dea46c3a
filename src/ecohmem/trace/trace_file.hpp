#pragma once

/// \file trace_file.hpp
/// Binary serialization of traces (the .prv-equivalent on-disk format).
///
/// Common layout (little-endian, no alignment padding):
///   magic "ECOHMTRC" | version u32 | sample_rate f64
///   module table: count u32, then {name, text_size u64, debug_size u64}
///   stack table:  count u32, then {depth u32, {module u32, offset u64}*}
///   function table: count u32, then {name}*
///   event count u64
/// Strings are u32 length + bytes.
///
/// After the header, the event section depends on the version:
///   v1 (plain)   — fixed-width tagged records.
///   v2 (compact) — delta-encoded timestamps + LEB128 varints, one
///                  continuous stream.
///   v3 (indexed) — the v2 codec split into independently-decodable
///                  blocks (the timestamp delta base resets to 0 at each
///                  block boundary), followed by a footer index of
///                  {file_offset u64, event_count u64, first_timestamp u64}
///                  per block and a trailer {entry_count u64,
///                  footer_offset u64, magic "ECOHMIDX"}. The index lets
///                  `TraceReader` (trace_reader.hpp) mmap the file and
///                  decode blocks on demand or in parallel. See
///                  docs/trace_format.md.
///
/// Readers auto-detect the version. The module table travels with the
/// trace so that BOM call stacks remain resolvable in a different
/// process (with different ASLR bases) — the property §VI relies on.

#include <iosfwd>
#include <memory>
#include <string>

#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::trace {

/// How much of the on-disk trace a bundle actually carries. Strict
/// reads always have full coverage; salvage-mode reads (trace_reader.hpp)
/// may recover fewer events than the file declared, and downstream
/// consumers (analyzer, advisor, lint) gate on this instead of guessing.
struct TraceCoverage {
  std::uint64_t events_seen = 0;      ///< events materialized in the bundle
  std::uint64_t events_declared = 0;  ///< events the trace file declared
  bool salvaged = false;              ///< bundle came from a salvage-mode read

  /// Fraction of declared events present (1.0 when nothing declared).
  [[nodiscard]] double fraction() const {
    if (events_declared == 0) return 1.0;
    return static_cast<double>(events_seen) / static_cast<double>(events_declared);
  }
  /// True for a default-constructed value (loader did not stamp it).
  [[nodiscard]] bool empty() const {
    return events_seen == 0 && events_declared == 0 && !salvaged;
  }
};

/// A trace together with the module table it was captured against.
struct TraceBundle {
  Trace trace;
  bom::ModuleTable modules;
  TraceCoverage coverage;  ///< stamped by the readers; empty() if not
};

struct TraceWriteOptions {
  /// Version-2 compact encoding: event timestamps are delta-encoded and
  /// all integer fields use LEB128 varints (lossless; ~25-50% smaller on
  /// sample-heavy traces, more on allocation-heavy ones).
  bool compact = false;
  /// Version-3 indexed encoding: the compact codec written in
  /// independently-decodable blocks with a footer index (takes
  /// precedence over `compact`). Enables mmap random access, streaming,
  /// and parallel decode via `TraceReader`.
  bool indexed = false;
  /// Events per v3 block. Smaller blocks mean finer-grained random
  /// access and parallelism at a slightly larger index.
  std::uint64_t block_events = 64 * 1024;
  /// Compress v3 block bodies (column streams, flagged per block in the
  /// footer index; see docs/trace_format.md). Requires `indexed`; blocks
  /// stay independently decodable and decode bit-identically. Files
  /// written without this remain byte-identical to the flagless format.
  bool compress = false;
};

/// Serializes `trace` captured against `modules` to a stream.
[[nodiscard]] Status write_trace(std::ostream& out, const Trace& trace,
                                 const bom::ModuleTable& modules,
                                 const TraceWriteOptions& options = {});

/// Deserializes a trace (any version; auto-detected); validates
/// magic/version, stack/module indices, and — for v3 — the footer index.
/// Shorthand for `TraceReader::from_stream(in)` then `read_all()`
/// (trace_reader.hpp).
[[nodiscard]] Expected<TraceBundle> read_trace(std::istream& in);

/// File-path conveniences; `load_trace` is `TraceReader::open(path)`
/// then `read_all()`.
[[nodiscard]] Status save_trace(const std::string& path, const Trace& trace,
                                const bom::ModuleTable& modules,
                                const TraceWriteOptions& options = {});
[[nodiscard]] Expected<TraceBundle> load_trace(const std::string& path);

/// Incremental v3 writer: appends events one at a time, flushing each
/// completed block to disk, so writing a trace never materializes more
/// than one block (~64K events) in memory. The header tables must be
/// known up front; the header's event count is patched in `finish()`.
///
/// Usage:
///   auto w = TraceBlockWriter::create(path, stacks, functions, modules, rate);
///   for (...) w->add(event);
///   w->finish();
class TraceBlockWriter {
 public:
  static Expected<TraceBlockWriter> create(const std::string& path, const StackTable& stacks,
                                           const FunctionTable& functions,
                                           const bom::ModuleTable& modules,
                                           double sample_rate_hz,
                                           std::uint64_t block_events = 64 * 1024,
                                           bool compress = false);

  TraceBlockWriter(TraceBlockWriter&&) noexcept;
  TraceBlockWriter& operator=(TraceBlockWriter&&) noexcept;
  TraceBlockWriter(const TraceBlockWriter&) = delete;
  TraceBlockWriter& operator=(const TraceBlockWriter&) = delete;
  ~TraceBlockWriter();

  /// Appends one event (must be called in time order, like the profiler
  /// emits). Validates alloc stack references against the header table.
  [[nodiscard]] Status add(const Event& e);

  /// Flushes the final partial block, writes the footer index, and
  /// patches the header event count. The writer is unusable afterwards.
  [[nodiscard]] Status finish();

  [[nodiscard]] std::uint64_t events_written() const;

 private:
  TraceBlockWriter();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ecohmem::trace
