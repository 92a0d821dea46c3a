#pragma once

/// \file codec.hpp
/// Internal byte-level codec shared by the trace writer and the readers
/// (trace_file.cpp, trace_reader.cpp). Not part of the public trace API.
///
/// Encoding appends to a `std::string` buffer that the writer flushes to
/// its output stream in large chunks, tracking absolute file offsets
/// itself — no `tellp` round-trips, and the v3 block writer knows every
/// block's offset without seeking.
///
/// Decoding runs over in-memory bytes (`ByteReader`: an mmapped file, a
/// slurped stream, or a serve frame). Every error a decoder produces
/// carries the absolute file offset it was detected at, so a truncated
/// or corrupt trace is diagnosable without a hex editor.
///
/// A v3 block body has one encoder, `encode_event_compact`, and one
/// decoder, `decode_event_compact` (`decode_compact_events` is its loop).

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::trace::codec {

inline constexpr char kMagic[8] = {'E', 'C', 'O', 'H', 'M', 'T', 'R', 'C'};
inline constexpr char kIndexMagic[8] = {'E', 'C', 'O', 'H', 'M', 'I', 'D', 'X'};
/// The one readable and written format version. v1 (fixed-width) and v2
/// (one continuous varint stream) files are rejected by decode_header.
inline constexpr std::uint32_t kVersionIndexed = 3;

/// Footer index entry size: {file_offset u64, event_count u64, first_timestamp u64}.
inline constexpr std::size_t kIndexEntryBytes = 24;
/// Trailer size: {entry_count u64, footer_offset u64, index magic (8 bytes)}.
inline constexpr std::size_t kTrailerBytes = 24;
/// Sanity cap on serialized string lengths (module/function names).
inline constexpr std::uint32_t kMaxStringBytes = 1u << 20;
/// Default events per v3 block (~64K, independently decodable).
inline constexpr std::uint64_t kDefaultBlockEvents = 64 * 1024;

/// Bit 63 of a v3 index entry's count field is reserved. Older writers
/// set it to flag a bit-packed block body, which no reader decodes any
/// more; `index_issues` refuses such a block. Real counts are bounded by
/// the file size, so the bit never belongs to a count.
inline constexpr std::uint64_t kBlockReservedBit = 1ull << 63;
inline constexpr std::uint64_t kBlockCountMask = kBlockReservedBit - 1;

/// Upper bound on one compact-encoded event: tag (1) + up to five 10-byte
/// varints + a flag byte. Sizes the encoder's stack buffer.
inline constexpr std::size_t kMaxCompactEventBytes = 52;

// Event tags.
enum : std::uint8_t {
  kTagAlloc = 1,
  kTagFree = 2,
  kTagSample = 3,
  kTagMarker = 4,
  kTagUncore = 5,
};

// --------------------------------------------------------------------------
// Encoding: append to a string buffer.

template <typename T>
inline void put(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void put_string(std::string& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

namespace detail {

/// LEB128 unsigned varint emit into a raw buffer; returns one past the
/// last byte written.
inline char* emit_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

template <typename T>
inline char* emit(char* p, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

}  // namespace detail

/// Compact event record (the v3 block body): delta-encoded
/// timestamp + varint integer fields. `last_time` carries the delta base
/// between calls; the block writer resets it to 0 at each block boundary
/// so blocks decode independently. Encodes through a fixed stack buffer
/// and appends once — the bytes are identical to the historical per-byte
/// appends, only the `std::string` bookkeeping per field is gone.
inline void encode_event_compact(std::string& out, const Event& e, Ns& last_time) {
  const Ns now = event_time(e);
  const std::uint64_t delta = now >= last_time ? now - last_time : 0;
  last_time = now;
  char buf[kMaxCompactEventBytes];
  char* p = buf;
  if (const auto* a = std::get_if<AllocEvent>(&e)) {
    *p++ = static_cast<char>(kTagAlloc);
    p = detail::emit_varint(p, delta);
    p = detail::emit_varint(p, a->object_id);
    p = detail::emit_varint(p, a->address);
    p = detail::emit_varint(p, a->size);
    p = detail::emit_varint(p, a->stack);
    *p++ = static_cast<char>(static_cast<std::uint8_t>(a->kind));
  } else if (const auto* f = std::get_if<FreeEvent>(&e)) {
    *p++ = static_cast<char>(kTagFree);
    p = detail::emit_varint(p, delta);
    p = detail::emit_varint(p, f->object_id);
  } else if (const auto* s = std::get_if<SampleEvent>(&e)) {
    *p++ = static_cast<char>(kTagSample);
    p = detail::emit_varint(p, delta);
    p = detail::emit_varint(p, s->address);
    p = detail::emit(p, s->weight);
    p = detail::emit(p, s->latency_ns);
    *p++ = static_cast<char>(s->is_store ? 1 : 0);
    p = detail::emit_varint(p, s->function_id);
  } else if (const auto* m = std::get_if<MarkerEvent>(&e)) {
    *p++ = static_cast<char>(kTagMarker);
    p = detail::emit_varint(p, delta);
    p = detail::emit_varint(p, m->function_id);
    *p++ = static_cast<char>(m->is_enter ? 1 : 0);
  } else if (const auto* u = std::get_if<UncoreBwEvent>(&e)) {
    *p++ = static_cast<char>(kTagUncore);
    p = detail::emit_varint(p, delta);
    p = detail::emit_varint(p, u->period_ns);
    p = detail::emit(p, u->read_gbs);
    p = detail::emit(p, u->write_gbs);
  }
  out.append(buf, static_cast<std::size_t>(p - buf));
}

// --------------------------------------------------------------------------
// Decoding sources.

/// Bounded cursor over in-memory bytes. `base_offset` is the absolute
/// file offset of `data[0]`, so errors name real file positions even
/// when decoding an mmapped block in the middle of the file.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size, std::uint64_t base_offset)
      : data_(data), size_(size), base_(base_offset) {}

  [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  bool read(void* out, std::size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool get(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return read(&v, sizeof(v));
  }

  bool get_varint(std::uint64_t& v) {
    v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return false;
      const unsigned char c = data_[pos_++];
      v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) return true;
    }
    return false;  // over-long encoding
  }

  bool get_string(std::string& s) {
    std::uint32_t n = 0;
    if (!get(n) || n > kMaxStringBytes || n > size_ - pos_) return false;
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t base_;
};

inline Unexpected truncated_at(const char* what, std::uint64_t offset) {
  return unexpected(std::string(what) + " at offset " + std::to_string(offset));
}

// --------------------------------------------------------------------------
// Header codec.

/// Decoded trace header: everything before the event stream.
struct HeaderInfo {
  std::uint32_t version = 0;
  double sample_rate_hz = 0.0;
  bom::ModuleTable modules;
  StackTable stacks;
  FunctionTable functions;
  std::uint64_t event_count = 0;
  std::uint64_t events_offset = 0;  ///< absolute offset of the first event byte
};

/// Encodes the full header (magic through the trailing event-count u64).
/// The count is the last 8 bytes of the encoded header, which lets the
/// streaming block writer patch it in place once the final count is known.
inline void encode_header(std::string& out, const StackTable& stacks,
                          const FunctionTable& functions, double sample_rate_hz,
                          const bom::ModuleTable& modules, std::uint64_t event_count) {
  out.append(kMagic, sizeof(kMagic));
  put(out, kVersionIndexed);
  put(out, sample_rate_hz);

  put(out, static_cast<std::uint32_t>(modules.size()));
  for (const auto& m : modules.modules()) {
    put_string(out, m.name);
    put(out, static_cast<std::uint64_t>(m.text_size));
    put(out, static_cast<std::uint64_t>(m.debug_info_size));
  }

  put(out, static_cast<std::uint32_t>(stacks.size()));
  for (std::uint32_t i = 0; i < stacks.size(); ++i) {
    const auto& cs = stacks.stack(i);
    put(out, static_cast<std::uint32_t>(cs.frames.size()));
    for (const auto& f : cs.frames) {
      put(out, f.module);
      put(out, f.offset);
    }
  }

  put(out, static_cast<std::uint32_t>(functions.size()));
  for (std::uint32_t i = 0; i < functions.size(); ++i) {
    put_string(out, functions.name(i));
  }

  put(out, event_count);
}

inline Expected<HeaderInfo> decode_header(ByteReader& src) {
  char magic[8];
  if (!src.read(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return unexpected("not an ecoHMEM trace (bad magic)");
  }
  HeaderInfo h;
  const std::uint64_t version_offset = src.offset();
  if (!src.get(h.version)) return truncated_at("truncated trace header", version_offset);
  if (h.version != kVersionIndexed) {
    return unexpected("unsupported trace version " + std::to_string(h.version) + " at offset " +
                      std::to_string(version_offset) +
                      ": only v3 traces are readable; re-profile the application with "
                      "ecohmem-profile");
  }
  if (!src.get(h.sample_rate_hz)) return truncated_at("truncated trace header", src.offset());

  std::uint32_t module_count = 0;
  if (!src.get(module_count)) return truncated_at("truncated module table", src.offset());
  for (std::uint32_t i = 0; i < module_count; ++i) {
    std::string name;
    std::uint64_t text_size = 0;
    std::uint64_t debug_size = 0;
    if (!src.get_string(name) || !src.get(text_size) || !src.get(debug_size)) {
      return truncated_at("truncated module table", src.offset());
    }
    h.modules.add_module(std::move(name), text_size, debug_size);
  }

  std::uint32_t stack_count = 0;
  if (!src.get(stack_count)) return truncated_at("truncated stack table", src.offset());
  for (std::uint32_t i = 0; i < stack_count; ++i) {
    std::uint32_t depth = 0;
    if (!src.get(depth) || depth > 1024) {
      return truncated_at("corrupt stack table", src.offset());
    }
    bom::CallStack cs;
    cs.frames.reserve(depth);
    for (std::uint32_t d = 0; d < depth; ++d) {
      bom::Frame f;
      if (!src.get(f.module) || !src.get(f.offset)) {
        return truncated_at("truncated stack table", src.offset());
      }
      if (f.module >= module_count) {
        return truncated_at("stack frame references unknown module", src.offset());
      }
      cs.frames.push_back(f);
    }
    h.stacks.intern(cs);
  }

  std::uint32_t fn_count = 0;
  if (!src.get(fn_count)) return truncated_at("truncated function table", src.offset());
  for (std::uint32_t i = 0; i < fn_count; ++i) {
    std::string name;
    if (!src.get_string(name)) return truncated_at("truncated function table", src.offset());
    h.functions.intern(name);
  }

  if (!src.get(h.event_count)) return truncated_at("truncated event stream", src.offset());
  h.events_offset = src.offset();
  return h;
}

// --------------------------------------------------------------------------
// Event decoders. `stack_count` bounds alloc stack references.

inline Status decode_event_compact(ByteReader& src, std::uint32_t stack_count, Ns& last_time,
                                   Event& out) {
  std::uint8_t tag = 0;
  std::uint64_t delta = 0;
  if (!src.get(tag) || !src.get_varint(delta)) {
    return truncated_at("truncated event stream", src.offset());
  }
  last_time += delta;
  switch (tag) {
    case kTagAlloc: {
      AllocEvent a;
      a.time = last_time;
      std::uint64_t stack = 0;
      std::uint8_t kind = 0;
      if (!src.get_varint(a.object_id) || !src.get_varint(a.address) ||
          !src.get_varint(a.size) || !src.get_varint(stack) || !src.get(kind)) {
        return truncated_at("truncated alloc event", src.offset());
      }
      if (stack >= stack_count) {
        return truncated_at("alloc event references unknown stack", src.offset());
      }
      a.stack = static_cast<StackId>(stack);
      a.kind = static_cast<AllocKind>(kind);
      out = a;
      return {};
    }
    case kTagFree: {
      FreeEvent f;
      f.time = last_time;
      if (!src.get_varint(f.object_id)) return truncated_at("truncated free event", src.offset());
      out = f;
      return {};
    }
    case kTagSample: {
      SampleEvent s;
      s.time = last_time;
      std::uint8_t is_store = 0;
      std::uint64_t fn = 0;
      if (!src.get_varint(s.address) || !src.get(s.weight) || !src.get(s.latency_ns) ||
          !src.get(is_store) || !src.get_varint(fn)) {
        return truncated_at("truncated sample event", src.offset());
      }
      s.is_store = is_store != 0;
      s.function_id = static_cast<std::uint32_t>(fn);
      out = s;
      return {};
    }
    case kTagMarker: {
      MarkerEvent m;
      m.time = last_time;
      std::uint64_t fn = 0;
      std::uint8_t is_enter = 0;
      if (!src.get_varint(fn) || !src.get(is_enter)) {
        return truncated_at("truncated marker event", src.offset());
      }
      m.function_id = static_cast<std::uint32_t>(fn);
      m.is_enter = is_enter != 0;
      out = m;
      return {};
    }
    case kTagUncore: {
      UncoreBwEvent u;
      u.time = last_time;
      if (!src.get_varint(u.period_ns) || !src.get(u.read_gbs) || !src.get(u.write_gbs)) {
        return truncated_at("truncated uncore event", src.offset());
      }
      out = u;
      return {};
    }
    default:
      return truncated_at(("unknown event tag " + std::to_string(tag)).c_str(), src.offset());
  }
}

/// Decodes exactly `n` compact events from `src`: `n` sequential
/// decode_event_compact calls, stopping at the first error.
inline Status decode_compact_events(ByteReader& src, std::uint32_t stack_count, Ns& last_time,
                                    Event* out, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (Status st = decode_event_compact(src, stack_count, last_time, out[i]); !st.ok()) {
      return st;
    }
  }
  return {};
}

// --------------------------------------------------------------------------
// Footer index codec (v3).

struct IndexEntry {
  std::uint64_t offset = 0;      ///< absolute file offset of the block's first byte
  std::uint64_t count = 0;       ///< events in the block
  std::uint64_t first_time = 0;  ///< timestamp of the block's first event
};

struct IndexInfo {
  std::vector<IndexEntry> entries;
  std::uint64_t footer_offset = 0;  ///< where the index entries begin
  std::uint64_t file_size = 0;
};

/// Structurally decodes the footer index of a v3 trace: trailer magic,
/// entry count, footer offset, then the entries. Deliberately lenient
/// about the *values* (monotonicity, bounds, count sums) — the strict
/// readers call `validate_index` on top, while the `trace-v3-index` lint
/// rule reports every one of `index_issues`.
inline Expected<IndexInfo> decode_index(const unsigned char* data, std::size_t size) {
  if (size < kTrailerBytes) {
    return truncated_at("v3 trace too small for index trailer", size);
  }
  const unsigned char* trailer = data + size - kTrailerBytes;
  if (std::memcmp(trailer + 16, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return truncated_at("missing v3 index trailer magic", size - 8);
  }
  IndexInfo info;
  info.file_size = size;
  std::uint64_t entry_count = 0;
  std::memcpy(&entry_count, trailer, 8);
  std::memcpy(&info.footer_offset, trailer + 8, 8);
  const std::uint64_t trailer_offset = size - kTrailerBytes;
  if (info.footer_offset > trailer_offset) {
    return truncated_at("v3 footer offset points past the index trailer", size - 16);
  }
  const std::uint64_t index_bytes = trailer_offset - info.footer_offset;
  // Divide rather than multiply: a hostile count times the entry size
  // can wrap around to the real span and pass.
  if (index_bytes % kIndexEntryBytes != 0 || entry_count != index_bytes / kIndexEntryBytes) {
    return unexpected("v3 index claims " + std::to_string(entry_count) + " entries but spans " +
                      std::to_string(index_bytes) + " bytes at offset " +
                      std::to_string(info.footer_offset));
  }
  info.entries.reserve(static_cast<std::size_t>(entry_count));
  ByteReader r(data + info.footer_offset, static_cast<std::size_t>(index_bytes),
               info.footer_offset);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    IndexEntry e;
    if (!r.get(e.offset) || !r.get(e.count) || !r.get(e.first_time)) {
      return truncated_at("truncated v3 index entry", r.offset());
    }
    info.entries.push_back(e);
  }
  return info;
}

/// The issue of block `i` at `offset` whose index count sets
/// kBlockReservedBit. `index_issues` reports it, and salvage drops the
/// block with the same words.
inline std::string reserved_bit_issue(std::size_t i, std::uint64_t offset) {
  return "v3 index block " + std::to_string(i) + " sets reserved count bit 63 at offset " +
         std::to_string(offset) +
         ": bit-packed block bodies are no longer readable; re-profile the application with "
         "ecohmem-profile";
}

/// Every fault of a v3 footer index, in the order the strict readers
/// meet them. Per block, in index order: a set reserved count bit
/// (`reserved_bit_issue`), an offset that does not chain from the
/// previous block's end (block 0's from the event section start), an
/// offset at or past the footer, an empty count, a first timestamp
/// before the previous block's, a non-positive byte size. Then an event
/// section that no block covers, and counts (reserved bit masked off)
/// that do not sum to the header total. The `trace-v3-index` lint rule
/// reports all.
inline std::vector<std::string> index_issues(const IndexInfo& info, std::uint64_t events_offset,
                                             std::uint64_t header_event_count) {
  using std::to_string;
  std::vector<std::string> issues;
  std::uint64_t total = 0;
  std::uint64_t prev_end = events_offset;
  std::uint64_t prev_time = 0;
  for (std::size_t i = 0; i < info.entries.size(); ++i) {
    const IndexEntry& e = info.entries[i];
    const auto fail = [&](const std::string& what) {
      issues.push_back("v3 index block " + to_string(i) + what);
    };
    if ((e.count & kBlockReservedBit) != 0) issues.push_back(reserved_bit_issue(i, e.offset));
    if (e.offset != prev_end) {
      fail(" starts at offset " + to_string(e.offset) + ", expected " + to_string(prev_end));
    }
    if (e.offset >= info.footer_offset) {
      fail(" offset " + to_string(e.offset) + " points past the event section end " +
           to_string(info.footer_offset));
    }
    if ((e.count & kBlockCountMask) == 0) fail(" is empty at offset " + to_string(e.offset));
    if (i > 0 && e.first_time < prev_time) {
      fail(" first timestamp " + to_string(e.first_time) + "ns precedes block " +
           to_string(i - 1) + " at " + to_string(prev_time) + "ns");
    }
    prev_time = e.first_time;
    // Block end is the next block's offset (or the footer); the next
    // iteration checks that it chains.
    prev_end = i + 1 < info.entries.size() ? info.entries[i + 1].offset : info.footer_offset;
    if (prev_end <= e.offset) fail(" has non-positive byte size at offset " + to_string(e.offset));
    total += e.count & kBlockCountMask;
  }
  if (info.entries.empty() && info.footer_offset != events_offset) {
    issues.push_back("v3 trace has no index blocks but a non-empty event section at offset " +
                     to_string(events_offset));
  }
  if (total != header_event_count) {
    issues.push_back("v3 index event counts sum to " + to_string(total) +
                     " but the header declares " + to_string(header_event_count) +
                     " (index at offset " + to_string(info.footer_offset) + ")");
  }
  return issues;
}

/// Strict index validation used by the readers before trusting any block
/// offset: the first of `index_issues`.
inline Status validate_index(const IndexInfo& info, std::uint64_t events_offset,
                             std::uint64_t header_event_count) {
  std::vector<std::string> issues = index_issues(info, events_offset, header_event_count);
  if (issues.empty()) return {};
  return unexpected(std::move(issues.front()));
}

}  // namespace ecohmem::trace::codec
