/// \file salvage.cpp
/// The salvage planner: block classification and byte/event accounting
/// for fail-soft trace reads. See salvage.hpp for the recovery rules.

#include "ecohmem/trace/salvage.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

namespace ecohmem::trace {

namespace {

/// Outcome of trial-decoding one span of the file.
struct Probe {
  std::uint64_t events = 0;      ///< events decoded cleanly
  std::uint64_t end_offset = 0;  ///< offset one past the last clean event
  Ns first_time = 0;             ///< timestamp of the first decoded event
  bool ok = true;                ///< false when decoding stopped on an error
  std::uint64_t error_offset = 0;
  std::string error;
};

/// Keeps the codec's message but anchors it at `offset`.
std::string anchored(std::string msg, std::uint64_t offset) {
  if (const auto k = msg.rfind(" at offset "); k != std::string::npos) msg.resize(k);
  return msg + " at offset " + std::to_string(offset);
}

/// The trace bytes the planner trial-decodes. A probe's cursor runs to
/// the file end, not the block end, so an event that overruns its block
/// is detected by offset rather than by a short read.
struct TraceBytes {
  const unsigned char* data;
  std::size_t size;
  std::uint32_t stack_count;

  [[nodiscard]] codec::ByteReader at(std::uint64_t begin) const {
    begin = std::min<std::uint64_t>(begin, size);
    return {data + begin, size - static_cast<std::size_t>(begin), begin};
  }

  /// Decodes up to `max_events` compact events starting at absolute
  /// offset `begin` with a fresh delta base, never accepting an event
  /// that ends past `end`. Stops cleanly when [begin, end) is exhausted,
  /// and with `ok = false` at the first decode error or overrun.
  [[nodiscard]] Probe probe(std::uint64_t begin, std::uint64_t end,
                            std::uint64_t max_events) const {
    codec::ByteReader src = at(begin);
    Probe p;
    p.end_offset = src.offset();
    Ns last_time = 0;
    Event ev;
    for (std::uint64_t j = 0; j < max_events; ++j) {
      const std::uint64_t pos = src.offset();
      if (pos >= end) break;
      const Status s = codec::decode_event_compact(src, stack_count, last_time, ev);
      if (!s.ok()) {
        // The loss names the event that failed, not the byte inside it
        // where the codec gave up.
        p.ok = false;
        p.error = anchored(s.error(), pos);
        p.error_offset = pos;
        break;
      }
      if (src.offset() > end) {
        p.ok = false;
        p.error = "event at offset " + std::to_string(pos) +
                  " overruns the block end at offset " + std::to_string(end);
        p.error_offset = pos;
        break;
      }
      if (p.events == 0) p.first_time = event_time(ev);
      ++p.events;
      p.end_offset = src.offset();
    }
    return p;
  }
};

/// Sequential-scan recovery for a file whose footer index is unreadable
/// (`index_error` carries the lenient decode error): decode the event
/// section front to back as one virtual block.
void plan_sequential(const TraceBytes& source, const codec::HeaderInfo& header,
                     std::uint64_t file_size, const std::string& index_error,
                     SalvagePlan& plan) {
  SalvageManifest& m = plan.manifest;
  m.sequential_scan = true;
  m.index_bytes = 0;

  // The header may still carry the streaming writer's 0 placeholder (the
  // crash-before-finish case), so 0 means "unknown": scan to the first
  // undecodable byte.
  std::uint64_t cap = header.event_count;
  if (cap == 0) cap = std::numeric_limits<std::uint64_t>::max();

  const Probe p = source.probe(header.events_offset, file_size, cap);
  m.events_recovered = p.events;
  m.events_declared = std::max(header.event_count, p.events);
  m.events_dropped = m.events_declared - m.events_recovered;
  m.kept_bytes = p.end_offset - header.events_offset;
  m.dropped_bytes = file_size - p.end_offset;

  if (p.events > 0) {
    m.blocks_kept = 1;
    plan.blocks.push_back(TraceBlockInfo{header.events_offset, m.kept_bytes, p.events,
                                         /*first_event_index=*/0, p.first_time});
  }
  if (m.events_dropped > 0 || m.dropped_bytes > 0) {
    m.blocks_dropped = 1;
    SalvageBlockLoss loss;
    loss.block = m.blocks_kept;  // the region after the last kept one
    loss.file_offset = p.end_offset;
    loss.byte_size = m.dropped_bytes;
    loss.events_declared = m.events_dropped;
    loss.first_error_offset = p.ok ? p.end_offset : p.error_offset;
    loss.reason = "footer index unreadable (" + index_error + ")";
    if (!p.ok) loss.reason += "; " + p.error;
    m.losses.push_back(std::move(loss));
  }
  m.blocks_declared = m.blocks_kept + m.blocks_dropped;
}

}  // namespace

std::string SalvageManifest::summary() const {
  char cov[32];
  std::snprintf(cov, sizeof(cov), "%.1f%%", coverage() * 100.0);
  std::string s = "salvage: kept " + std::to_string(blocks_kept) + "/" +
                  std::to_string(blocks_declared) + " blocks, " + std::to_string(events_recovered) +
                  "/" + std::to_string(events_declared) + " events (" + cov + " coverage), dropped " +
                  std::to_string(dropped_bytes) + " of " + std::to_string(file_bytes) + " bytes";
  if (sequential_scan) s += " [sequential scan: no usable index]";
  return s;
}

std::string SalvageManifest::skew_warning() const {
  if (!sequential_scan) return {};
  return "v3 footer index was unusable; events were recovered by sequential scan — timestamps "
         "after the first block boundary may be skewed (docs/trace_format.md)";
}

SalvagePlan build_salvage_plan(const unsigned char* data, std::size_t size,
                               const codec::HeaderInfo& header) {
  const TraceBytes source{data, size, static_cast<std::uint32_t>(header.stacks.size())};
  const std::uint64_t file_size = size;
  SalvagePlan plan;
  SalvageManifest& m = plan.manifest;
  m.salvaged = true;
  m.file_bytes = file_size;
  m.header_bytes = header.events_offset;
  // A structurally-readable footer whose offset points into (or before)
  // the header cannot describe real blocks — its "entries" are header
  // bytes. Treat it the same as an unreadable index.
  const Expected<codec::IndexInfo> index = codec::decode_index(data, size);
  if (!index.has_value() || index->footer_offset < header.events_offset) {
    const std::string err =
        index.has_value() ? "footer offset points before the event section" : index.error();
    plan_sequential(source, header, file_size, err, plan);
    return plan;
  }

  const codec::IndexInfo& idx = *index;
  const std::uint64_t events_end = idx.footer_offset;
  m.index_usable = true;
  m.index_bytes = file_size - events_end;
  m.blocks_declared = idx.entries.size();
  for (const codec::IndexEntry& e : idx.entries) {
    m.events_declared += e.count & codec::kBlockCountMask;
  }

  // Pass 1: keep only entries whose offsets are in-range and strictly
  // increasing — anything else is index damage and its span cannot be
  // attributed, so the declared events are charged as lost up front.
  struct Candidate {
    std::uint64_t ordinal;
    codec::IndexEntry entry;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(idx.entries.size());
  std::uint64_t prev_offset = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < idx.entries.size(); ++i) {
    const codec::IndexEntry& e = idx.entries[i];
    const std::uint64_t entry_pos = idx.footer_offset + i * codec::kIndexEntryBytes;
    const bool plausible = e.offset >= header.events_offset && e.offset < events_end &&
                           (!have_prev || e.offset > prev_offset);
    if (!plausible) {
      SalvageBlockLoss loss;
      loss.block = i;
      loss.file_offset = e.offset;
      loss.byte_size = 0;  // span unattributable; the bytes land in dropped_bytes
      loss.events_declared = e.count & codec::kBlockCountMask;
      loss.first_error_offset = entry_pos;
      loss.reason = "implausible index entry (offset out of range or out of order)";
      m.losses.push_back(std::move(loss));
      ++m.blocks_dropped;
      m.events_dropped += e.count & codec::kBlockCountMask;
      continue;
    }
    candidates.push_back(Candidate{i, e});
    prev_offset = e.offset;
    have_prev = true;
  }

  // Pass 2: trial-decode each candidate span. A block is kept only when
  // it decodes cleanly, yields exactly the declared count, and ends
  // exactly where the next candidate begins — anything weaker would let
  // a flipped count byte silently shift events between blocks. A block
  // whose count sets the reserved bit is dropped undecoded; it still
  // bounds its neighbours' spans.
  std::uint64_t first_event_index = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const Candidate& c = candidates[k];
    const std::uint64_t span_end =
        k + 1 < candidates.size() ? candidates[k + 1].entry.offset : events_end;
    const std::uint64_t declared = c.entry.count & codec::kBlockCountMask;
    const bool reserved = (c.entry.count & codec::kBlockReservedBit) != 0;
    Probe p = reserved ? Probe{} : source.probe(c.entry.offset, span_end, declared);
    std::string reason;
    if (reserved) {
      reason = codec::reserved_bit_issue(c.ordinal, c.entry.offset);
      p.error_offset = c.entry.offset;
    } else if (!p.ok) {
      reason = p.error;
    } else if (p.events != declared) {
      reason = "block decodes only " + std::to_string(p.events) + " of " +
               std::to_string(declared) + " declared events";
      p.error_offset = p.end_offset;
    } else if (p.end_offset != span_end) {
      reason = std::to_string(span_end - p.end_offset) +
               " undecoded bytes between the block's last event and the next block";
      p.error_offset = p.end_offset;
    }
    if (reason.empty()) {
      plan.blocks.push_back(TraceBlockInfo{c.entry.offset, span_end - c.entry.offset, declared,
                                           first_event_index, p.first_time});
      first_event_index += declared;
      ++m.blocks_kept;
      m.events_recovered += declared;
      m.kept_bytes += span_end - c.entry.offset;
    } else {
      SalvageBlockLoss loss;
      loss.block = c.ordinal;
      loss.file_offset = c.entry.offset;
      loss.byte_size = span_end - c.entry.offset;
      loss.events_declared = declared;
      loss.first_error_offset = p.error_offset;
      loss.reason = std::move(reason);
      m.losses.push_back(std::move(loss));
      ++m.blocks_dropped;
      m.events_dropped += declared;
    }
  }

  // Global byte accounting: every event-section byte not inside a kept
  // block is dropped, which also covers gaps no index entry claims.
  m.dropped_bytes = (events_end - header.events_offset) - m.kept_bytes;
  std::sort(m.losses.begin(), m.losses.end(),
            [](const SalvageBlockLoss& a, const SalvageBlockLoss& b) { return a.block < b.block; });
  return plan;
}

}  // namespace ecohmem::trace
