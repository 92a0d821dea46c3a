#pragma once

/// \file salvage.hpp
/// Fail-soft trace recovery: the salvage planner `TraceReader`
/// (trace_reader.hpp) runs when it is opened in salvage mode.
///
/// A strict reader rejects a trace at the first structural error. The
/// salvage planner instead classifies the file block by block, using the
/// *lenient* v3 index decode (codec::decode_index — previously the
/// linter's private tool) and a trial decode of every candidate block:
///
///   - v3, readable trailer+footer: every index entry whose offset is
///     in-range and increasing gets its span trial-decoded; a block is
///     kept only when it decodes cleanly, yields exactly the event count
///     the index declares, and ends exactly at the next block's offset.
///     Anything else becomes a `SalvageBlockLoss` with the first error
///     offset. Blocks after a dropped block remain recoverable because
///     v3 blocks decode independently (the delta base resets per block).
///     Compressed blocks (kBlockCompressedFlag on the index count) are
///     trial-decoded all-or-nothing with the column codec under the
///     same three conditions.
///   - v3, unreadable trailer/footer (short write, crashed profiler):
///     sequential scan — the event section is decoded front to back as
///     one virtual block up to the first undecodable event. A compressed
///     block's 0xEC lead byte is never a valid event tag, so the scan
///     stops there: compressed events are only recoverable through the
///     index. See docs/trace_format.md for the timestamp caveat past
///     the first block boundary.
///   - v1/v2: sequential scan with the version's codec, capped at the
///     header's declared event count.
///
/// The resulting `SalvageManifest` accounts for every byte of the file
/// (`bytes_conserved()`) and every declared event (recovered + dropped ==
/// declared whenever the index was usable), so degraded reads are loud:
/// the analyzer stamps the coverage into its reports and `ecohmem-lint`
/// gates on it (trace-salvage-coverage). docs/robustness.md is the
/// user-facing guide.

#include <cstdint>
#include <string>
#include <vector>

#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::trace {

/// One independently-decodable event block (v3), or the whole event
/// section as a single virtual block (v1/v2 and sequential salvage).
struct TraceBlockInfo {
  std::uint64_t file_offset = 0;       ///< absolute offset of the block's first byte
  std::uint64_t byte_size = 0;         ///< encoded size in bytes
  std::uint64_t event_count = 0;       ///< events in the block (compression flag masked off)
  std::uint64_t first_event_index = 0; ///< index of the block's first event in the trace
  Ns first_time = 0;                   ///< timestamp of the block's first event (v3)
  bool compressed = false;             ///< body is a compressed column block (v3)
};

/// One region salvage could not recover, with the reason and where the
/// first error was detected (absolute file offset).
struct SalvageBlockLoss {
  std::uint64_t block = 0;             ///< ordinal in the raw footer index
  std::uint64_t file_offset = 0;       ///< where the lost region begins
  std::uint64_t byte_size = 0;         ///< bytes charged to this loss (0 when unattributable)
  std::uint64_t events_declared = 0;   ///< events the index/header claimed for the region
  std::uint64_t first_error_offset = 0;
  std::string reason;
};

/// Full accounting of a salvage read: what was kept, what was dropped
/// and why, down to the byte. `salvaged` is false for strict opens (the
/// manifest is then not meaningful).
struct SalvageManifest {
  bool salvaged = false;         ///< the reader ran in salvage mode
  bool index_usable = false;     ///< the v3 footer index was structurally readable
  bool sequential_scan = false;  ///< recovered by front-to-back scan (no usable index)
  std::uint32_t version = 0;

  std::uint64_t file_bytes = 0;
  std::uint64_t header_bytes = 0;  ///< magic through the header tables
  std::uint64_t kept_bytes = 0;    ///< event bytes in recovered blocks
  std::uint64_t dropped_bytes = 0; ///< event-section bytes not recovered
  std::uint64_t index_bytes = 0;   ///< footer + trailer (0 when unreadable)

  std::uint64_t blocks_declared = 0;
  std::uint64_t blocks_kept = 0;
  std::uint64_t blocks_dropped = 0;

  std::uint64_t events_declared = 0;  ///< index sum (v3) or header count (v1/v2)
  std::uint64_t events_recovered = 0;
  std::uint64_t events_dropped = 0;   ///< declared - recovered

  std::vector<SalvageBlockLoss> losses;

  /// Fraction of declared events recovered (1.0 when nothing declared).
  [[nodiscard]] double coverage() const {
    if (events_declared == 0) return 1.0;
    return static_cast<double>(events_recovered) / static_cast<double>(events_declared);
  }

  /// Every file byte is accounted exactly once: header, kept blocks,
  /// dropped regions, index. The corruption-sweep test asserts this for
  /// every injected fault — salvage never silently loses bytes.
  [[nodiscard]] bool bytes_conserved() const {
    return header_bytes + kept_bytes + dropped_bytes + index_bytes == file_bytes;
  }

  /// One-line human summary for CLI output.
  [[nodiscard]] std::string summary() const;

  /// The caveat of a v3 trace recovered by sequential scan: its block
  /// timestamps may be skewed. Empty for any other read. Lint's
  /// trace-salvage-coverage rule and `ecohmem-timeline --salvage` both
  /// print it.
  [[nodiscard]] std::string skew_warning() const;
};

/// The salvage classification: manifest plus the kept-block table the
/// reader serves (`first_event_index` renumbered over recovered events
/// only, `first_time` taken from the decoded events, so the index values
/// need not be trusted).
struct SalvagePlan {
  SalvageManifest manifest;
  std::vector<TraceBlockInfo> blocks;
};

/// Classifies the trace held in `[data, data + size)` for salvage,
/// trial-decoding every candidate block in place. A v3 footer index is
/// decoded leniently (codec::decode_index); when it is unreadable the
/// planner falls back to the sequential scan. The header must already
/// have decoded — without its tables nothing is recoverable.
[[nodiscard]] SalvagePlan build_salvage_plan(const unsigned char* data, std::size_t size,
                                             const codec::HeaderInfo& header);

}  // namespace ecohmem::trace
