#pragma once

/// \file trace_reader.hpp
/// The one trace decoder: every read of an on-disk trace goes through
/// `TraceReader` (`load_trace`/`read_trace` are `open`/`from_stream`
/// plus `read_all`).
///
/// `TraceReader` mmaps a trace file (falling back to a private in-memory
/// copy for unseekable inputs) and exposes the v3 block index: each
/// block is independently decodable, so blocks can be decoded on demand,
/// out of order, or in parallel (`read_all(threads)` fans block decoding
/// out across a fork-join worker pool and writes into disjoint slices of
/// the destination vector — bit-identical to serial decode by
/// construction). v1/v2 traces are presented as a single virtual block,
/// so every caller works on every version.
///
/// `for_each` is the bounded-memory path for consumers that never need
/// the whole trace at once (ecohmem-timeline): it decodes in chunks of
/// at most one compressed block or 16K events — v1/v2 included — and
/// hands consumed pages of the mapping back as it goes, so peak memory
/// stays flat however large the trace is.
///
/// Thread safety: after construction, `TraceReader`'s accessors,
/// `decode_block*` and `for_each` are const and safe to call from any
/// number of threads concurrently (the mapping is immutable; a page
/// `for_each` released faults back in unchanged). `read_all` must be
/// called from one thread at a time (it owns the worker pool hand-off).

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/salvage.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::trace {

/// How a trace file is opened.
struct TraceOpenOptions {
  /// Fail-soft mode: instead of rejecting a corrupt/truncated trace at
  /// the first structural error, recover every independently decodable
  /// block and account for the rest in `manifest()` (salvage.hpp). The
  /// header tables must still decode — without them nothing is
  /// recoverable. Off by default: strict reads stay strict.
  bool salvage = false;
};

class TraceReader {
 public:
  /// Opens and validates a trace file: header decoded eagerly, v3 footer
  /// index decoded and strictly validated (chained offsets, counts
  /// summing to the header total, non-decreasing timestamps). The file
  /// is mmapped read-only when possible. With `options.salvage`,
  /// validation relaxes to per-block recovery (see `manifest()`).
  static Expected<TraceReader> open(const std::string& path, TraceOpenOptions options = {});

  /// Reads a trace from a stream that may not be seekable (a pipe): the
  /// bytes are copied into a private buffer, everything else behaves
  /// like `open`. A stream that goes bad mid-read is an error, not EOF.
  static Expected<TraceReader> from_stream(std::istream& in, TraceOpenOptions options = {});

  TraceReader(TraceReader&&) noexcept;
  TraceReader& operator=(TraceReader&&) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  ~TraceReader();

  [[nodiscard]] std::uint32_t version() const;
  /// True for the v3 indexed format (random-access blocks).
  [[nodiscard]] bool indexed() const;
  /// True when the file is mmapped (zero-copy); false when it was read
  /// into a private buffer.
  [[nodiscard]] bool mapped() const;
  [[nodiscard]] double sample_rate_hz() const;
  [[nodiscard]] const bom::ModuleTable& modules() const;
  [[nodiscard]] const StackTable& stacks() const;
  [[nodiscard]] const FunctionTable& functions() const;
  [[nodiscard]] std::uint64_t event_count() const;
  [[nodiscard]] std::uint64_t byte_size() const;

  [[nodiscard]] std::size_t block_count() const;
  [[nodiscard]] const TraceBlockInfo& block(std::size_t i) const;

  /// Decodes block `i` into `out`, which must have room for
  /// `block(i).event_count` events. Safe to call concurrently for
  /// distinct (or even the same) blocks. Errors carry file offsets.
  [[nodiscard]] Status decode_block_into(std::size_t i, Event* out) const;

  /// Convenience: resizes `out` and decodes into it.
  [[nodiscard]] Status decode_block(std::size_t i, std::vector<Event>& out) const;

  /// Materializes the whole trace (tables copied). With `threads > 1`
  /// and a v3 trace, blocks decode in parallel into disjoint slices of
  /// the event vector; the result is bit-identical to serial decode —
  /// in salvage mode too (recovered blocks are fixed at open time).
  /// The bundle's `coverage` reflects the salvage manifest.
  [[nodiscard]] Expected<TraceBundle> read_all(int threads = 1) const;

  /// Streams every event, in order, through `fn` without materializing
  /// the trace: uncompressed events decode in chunks of at most 16K, a
  /// compressed block whole, and consumed pages of the mapping are
  /// released as the walk advances. Each call re-reads from the first
  /// block, so multi-pass consumers call it once per pass. Strict and
  /// salvage opens behave as in `read_all` (salvage streams only the
  /// recovered blocks); on a decode error, the events of earlier chunks
  /// have already been delivered.
  [[nodiscard]] Status for_each(const std::function<void(const Event&)>& fn) const;

  /// Salvage accounting for this open. `manifest().salvaged` is false
  /// for strict opens (the other fields are then meaningless).
  [[nodiscard]] const SalvageManifest& manifest() const;

 private:
  TraceReader();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ecohmem::trace
