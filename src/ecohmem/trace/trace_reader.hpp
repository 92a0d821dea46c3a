#pragma once

/// \file trace_reader.hpp
/// The one trace reader: every read of an on-disk trace goes through
/// `TraceReader` (`load_trace`/`read_trace` are `open`/`from_stream`
/// plus `read_all`). It reads v3 only; `codec::decode_header` rejects
/// v1/v2 files with an offset-bearing error that says to re-profile,
/// and `codec::index_issues` rejects a block whose index count sets the
/// reserved bit 63 (the retired bit-packed body) the same way. Events
/// decode one at a time through `codec::decode_event_compact`.
///
/// `TraceReader` mmaps a trace file (falling back to a private in-memory
/// copy for unseekable inputs) and exposes the block index: blocks
/// decode independently, on demand and out of order. `read_all` decodes
/// them front to back on the calling thread.
///
/// `for_each` is the bounded-memory path for consumers that never need
/// the whole trace at once (ecohmem-timeline): it decodes in chunks of
/// at most 16K events and hands consumed pages of the mapping back as it
/// goes, so peak memory stays flat however large the trace is.
///
/// Thread safety: after construction every member is const and safe to
/// call from any number of threads concurrently (the mapping is
/// immutable; a page `for_each` released faults back in unchanged).

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
  /// Opens and validates a trace file: header decoded eagerly, footer
  /// index decoded and strictly validated (chained offsets, counts
  /// summing to the header total, non-decreasing timestamps). The file
  /// is mmapped read-only when possible. With `options.salvage`,
  /// validation relaxes to per-block recovery (see `manifest()`).
  static Expected<TraceReader> open(const std::string& path, TraceOpenOptions options = {});

  /// Reads a trace from a stream that may not be seekable (a pipe): the
  /// bytes from the current position on are copied into a private
  /// buffer (in one read of the size a seekable stream reports, in
  /// chunks otherwise), everything else behaves like `open`. A stream
  /// that goes bad mid-read is an error, not EOF.
  static Expected<TraceReader> from_stream(std::istream& in, TraceOpenOptions options = {});

  TraceReader(TraceReader&&) noexcept;
  TraceReader& operator=(TraceReader&&) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  ~TraceReader();

  [[nodiscard]] std::uint32_t version() const;
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

  /// Materializes the whole trace (tables copied), decoding the blocks
  /// in order. The bundle's `coverage` reflects the salvage manifest.
  /// The argument is unread; perfbench passes 1 until ROADMAP item 14's
  /// perfbench change deletes it.
  [[nodiscard]] Expected<TraceBundle> read_all(int /*unused*/ = 1) const;

  /// Streams every event, in order, through `fn` without materializing
  /// the trace: events decode in chunks of at most 16K, and consumed
  /// pages of the mapping are released as the walk advances. Each call
  /// re-reads from the first block, so multi-pass consumers call it once
  /// per pass. Strict and
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
