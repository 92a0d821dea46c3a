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
/// Uncompressed v3 block bodies have one decoder, `decode_event_compact`
/// (`decode_compact_events` is its loop); compressed v3 blocks decode
/// through bit-packed column cursors (`decode_compressed_block_into`).

#include <cstdint>
#include <cstring>
#include <memory>
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

/// Bit 63 of a v3 index entry's count field marks the block body as
/// compressed (column streams, see encode_compressed_block). Stealing a
/// count bit keeps uncompressed v3 files byte-identical to the flagless
/// format; real counts are bounded by the file size, so the bit is free.
inline constexpr std::uint64_t kBlockCompressedFlag = 1ull << 63;
inline constexpr std::uint64_t kBlockCountMask = kBlockCompressedFlag - 1;
/// First byte of a compressed block body. 0xEC is not a valid event tag,
/// so a sequential scan (salvage without an index) can tell a compressed
/// block from an uncompressed event stream by its first byte.
inline constexpr std::uint8_t kCompressedBlockMagic = 0xEC;
inline constexpr std::uint8_t kCompressedLayoutVersion = 1;

/// Upper bound on one compact-encoded event: tag (1) + up to five 10-byte
/// varints + a flag byte. Sizes the encoder's stack buffer.
inline constexpr std::size_t kMaxCompactEventBytes = 52;

// Event tags (shared by the uncompressed and compressed block bodies).
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

/// LEB128 unsigned varint.
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

namespace detail {

/// LEB128 emit into a raw buffer; returns one past the last byte written.
/// Same byte sequence as put_varint, without the per-byte push_back.
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

/// Compact event record (the uncompressed block body): delta-encoded
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

  /// Raw cursor for the compressed block's packed columns. The caller
  /// owns the bounds proof: it may only dereference bytes it has checked
  /// via remaining(), and `skip` must not pass the end.
  [[nodiscard]] const unsigned char* raw() const { return data_ + pos_; }
  void skip(std::size_t n) { pos_ += n; }

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
// Compressed block codec (v3, opt-in per block via kBlockCompressedFlag).
//
// A compressed block body replaces the compact event stream with column
// streams: the tag sequence, then every field as a bit-packed u64 column
// grouped by event kind (values appear in stream order within their
// kind). Doubles are bit-reversed before packing — profiling weights and
// latencies are quantized, so their low mantissa bits are zero and the
// reversed values pack narrow. The block stays independently decodable:
// the delta-timestamp base resets to 0 exactly as in uncompressed v3
// blocks, so decoding yields bit-identical events.
//
// Body layout (normative; docs/trace_format.md):
//   u8  magic           0xEC (never a valid event tag)
//   u8  layout version  1
//   varint n_events
//   u8[n_events] tags   (per-kind counts are derived from these)
//   packed column: time deltas (all events, stream order)
//   packed columns per kind, each over that kind's events in order:
//     alloc:  object_id, address, size, stack, kind
//     free:   object_id
//     sample: address, bitrev(weight), bitrev(latency_ns), is_store,
//             function_id
//     marker: function_id, is_enter
//     uncore: period_ns, bitrev(read_gbs), bitrev(write_gbs)
//   packed column: u8 bit width (0-64), then ceil(n*width/8) bytes of
//   width-bit values packed LSB-first.

namespace detail {

inline std::uint64_t bitrev64(std::uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0f0f0f0f0f0f0f0full) | ((v & 0x0f0f0f0f0f0f0f0full) << 4);
  v = ((v >> 8) & 0x00ff00ff00ff00ffull) | ((v & 0x00ff00ff00ff00ffull) << 8);
  v = ((v >> 16) & 0x0000ffff0000ffffull) | ((v & 0x0000ffff0000ffffull) << 16);
  return (v >> 32) | (v << 32);
}

inline std::uint64_t double_to_packed(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bitrev64(bits);
}

inline double packed_to_double(std::uint64_t v) {
  const std::uint64_t bits = bitrev64(v);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace detail

/// Appends a bit-packed u64 column: u8 width, then the values LSB-first.
inline void put_packed_column(std::string& out, const std::uint64_t* vals, std::size_t n) {
  unsigned width = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (width < 64 && (vals[i] >> width) != 0) ++width;
  }
  out.push_back(static_cast<char>(width));
  if (width == 0 || n == 0) return;
  unsigned __int128 acc = 0;
  unsigned nbits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= static_cast<unsigned __int128>(vals[i]) << nbits;
    nbits += width;
    while (nbits >= 8) {
      out.push_back(static_cast<char>(static_cast<unsigned char>(acc & 0xff)));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out.push_back(static_cast<char>(static_cast<unsigned char>(acc & 0xff)));
}

namespace detail {

/// Bit-packed column view used by the fused block decoder: value `j`
/// is extracted with one unaligned 8-byte load at its bit offset plus
/// one spill byte, straight out of the source bytes — no intermediate
/// u64 vector. `p` must stay dereferenceable 8 bytes past the packed
/// payload (the zero-copy opener below proves that bound or falls back
/// to an owned copy).
struct PackedCursor {
  const unsigned char* p = nullptr;
  unsigned width = 0;
  std::uint64_t mask = 0;

  [[nodiscard]] std::uint64_t at(std::uint64_t j) const {
    const std::uint64_t bitpos = j * width;
    const std::uint64_t byte = bitpos >> 3;
    const unsigned sh = static_cast<unsigned>(bitpos & 7);
    std::uint64_t w;
    std::memcpy(&w, p + byte, sizeof(w));
    // The ninth byte contributes the top `sh` bits of a 64-bit-wide
    // read; the double shift keeps sh == 0 well-defined.
    const std::uint64_t spill = p[byte + 8];
    return ((w >> sh) | ((spill << 1) << (63 - sh))) & mask;
  }
};

/// Backing bytes for zero-width columns: at() always lands on offset 0
/// and masks to zero, so no per-call width branch is needed.
inline constexpr unsigned char kZeroColumn[16] = {};

/// Parses one packed column header and positions a cursor over its
/// payload. The bytes are served in place whenever the buffer extends 8
/// bytes past the column (true for every column except a file's final
/// one); otherwise the payload is copied into an owned buffer with the
/// 8 spill bytes zeroed.
inline bool open_packed_column(ByteReader& src, std::uint64_t n, PackedCursor& c,
                               std::vector<std::unique_ptr<unsigned char[]>>& own) {
  std::uint8_t width = 0;
  if (!src.get(width) || width > 64) return false;
  if (width == 0 || n == 0) {
    c.p = kZeroColumn;
    c.width = 0;
    c.mask = 0;
    return true;
  }
  const std::uint64_t nbytes = (n * width + 7) / 8;
  if (nbytes > src.remaining()) return false;
  c.width = width;
  c.mask = width == 64 ? ~0ull : (1ull << width) - 1;
  if (src.remaining() >= nbytes + 8) {
    c.p = src.raw();
    src.skip(static_cast<std::size_t>(nbytes));
    return true;
  }
  auto buf = std::make_unique<unsigned char[]>(static_cast<std::size_t>(nbytes) + 8);
  src.read(buf.get(), static_cast<std::size_t>(nbytes));
  std::memset(buf.get() + nbytes, 0, 8);
  c.p = buf.get();
  own.push_back(std::move(buf));
  return true;
}

}  // namespace detail

/// Encodes `n` events as one compressed block body (see layout above).
/// Lossless: decoding yields events bit-identical to the compact
/// codec's decode of the same stream, including the delta clamp for
/// non-monotonic timestamps.
inline void encode_compressed_block(std::string& out, const Event* events, std::size_t n) {
  out.push_back(static_cast<char>(kCompressedBlockMagic));
  out.push_back(static_cast<char>(kCompressedLayoutVersion));
  put_varint(out, n);

  std::vector<std::uint64_t> deltas;
  deltas.reserve(n);
  // Per-kind field columns, stream order within each kind.
  std::vector<std::uint64_t> a_id, a_addr, a_size, a_stack, a_kind;
  std::vector<std::uint64_t> f_id;
  std::vector<std::uint64_t> s_addr, s_weight, s_lat, s_store, s_fn;
  std::vector<std::uint64_t> m_fn, m_enter;
  std::vector<std::uint64_t> u_period, u_read, u_write;

  Ns last_time = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    const Ns now = event_time(e);
    deltas.push_back(now >= last_time ? now - last_time : 0);
    last_time = now;
    if (const auto* a = std::get_if<AllocEvent>(&e)) {
      out.push_back(static_cast<char>(kTagAlloc));
      a_id.push_back(a->object_id);
      a_addr.push_back(a->address);
      a_size.push_back(a->size);
      a_stack.push_back(a->stack);
      a_kind.push_back(static_cast<std::uint8_t>(a->kind));
    } else if (const auto* f = std::get_if<FreeEvent>(&e)) {
      out.push_back(static_cast<char>(kTagFree));
      f_id.push_back(f->object_id);
    } else if (const auto* smp = std::get_if<SampleEvent>(&e)) {
      out.push_back(static_cast<char>(kTagSample));
      s_addr.push_back(smp->address);
      s_weight.push_back(detail::double_to_packed(smp->weight));
      s_lat.push_back(detail::double_to_packed(smp->latency_ns));
      s_store.push_back(smp->is_store ? 1 : 0);
      s_fn.push_back(smp->function_id);
    } else if (const auto* m = std::get_if<MarkerEvent>(&e)) {
      out.push_back(static_cast<char>(kTagMarker));
      m_fn.push_back(m->function_id);
      m_enter.push_back(m->is_enter ? 1 : 0);
    } else if (const auto* u = std::get_if<UncoreBwEvent>(&e)) {
      out.push_back(static_cast<char>(kTagUncore));
      u_period.push_back(u->period_ns);
      u_read.push_back(detail::double_to_packed(u->read_gbs));
      u_write.push_back(detail::double_to_packed(u->write_gbs));
    }
  }

  const auto put_col = [&out](const std::vector<std::uint64_t>& v) {
    put_packed_column(out, v.data(), v.size());
  };
  put_col(deltas);
  put_col(a_id);
  put_col(a_addr);
  put_col(a_size);
  put_col(a_stack);
  put_col(a_kind);
  put_col(f_id);
  put_col(s_addr);
  put_col(s_weight);
  put_col(s_lat);
  put_col(s_store);
  put_col(s_fn);
  put_col(m_fn);
  put_col(m_enter);
  put_col(u_period);
  put_col(u_read);
  put_col(u_write);
}

namespace detail {

/// Shared body of the compressed-block decoders: parses the header,
/// tag sequence and columns, then materializes every event into the
/// `n` writable slots `prepare(n)` returns. The merge runs per kind —
/// a counting sort of the tag sequence yields each kind's stream
/// positions, so the hot loops have no per-event tag dispatch — and
/// writes each Event at its stream position. Decoding is all-or-
/// nothing: on error nothing is delivered (`prepare` may have run).
template <typename Prepare>
Status decode_compressed_block_impl(ByteReader& src, std::uint32_t stack_count,
                                    std::uint64_t max_events, std::uint64_t& n_events,
                                    Prepare&& prepare) {
  const std::uint64_t body_offset = src.offset();
  std::uint8_t magic = 0;
  std::uint8_t layout = 0;
  if (!src.get(magic) || magic != kCompressedBlockMagic) {
    return truncated_at("not a compressed block (bad magic)", body_offset);
  }
  if (!src.get(layout) || layout != kCompressedLayoutVersion) {
    return truncated_at("unsupported compressed block layout", src.offset());
  }
  std::uint64_t n = 0;
  if (!src.get_varint(n)) {
    return truncated_at("truncated compressed block header", src.offset());
  }
  if (n > max_events) {
    return unexpected("compressed block declares " + std::to_string(n) +
                      " events, more than the " + std::to_string(max_events) +
                      " admissible at offset " + std::to_string(body_offset));
  }
  n_events = n;

  std::vector<std::uint8_t> tags(static_cast<std::size_t>(n));
  if (n > 0 && !src.read(tags.data(), tags.size())) {
    return truncated_at("truncated compressed block tag column", src.offset());
  }
  std::uint64_t counts[6] = {0, 0, 0, 0, 0, 0};
  for (const std::uint8_t t : tags) {
    if (t < kTagAlloc || t > kTagUncore) {
      return truncated_at(("unknown event tag " + std::to_string(t) +
                           " in compressed block starting")
                              .c_str(),
                          body_offset);
    }
    ++counts[t];
  }

  // Columns are consumed as cursors over the source bytes (zero-copy
  // for in-memory blocks) and unpacked directly into the output events
  // below — the packed payload is only touched once.
  std::vector<std::unique_ptr<unsigned char[]>> own;
  PackedCursor dcol;
  if (!open_packed_column(src, n, dcol, own)) {
    return truncated_at("truncated compressed block column", src.offset());
  }
  // Column order and per-kind sizes mirror encode_compressed_block.
  const std::uint64_t sizes[16] = {
      counts[kTagAlloc], counts[kTagAlloc],  counts[kTagAlloc],  counts[kTagAlloc],
      counts[kTagAlloc], counts[kTagFree],   counts[kTagSample], counts[kTagSample],
      counts[kTagSample], counts[kTagSample], counts[kTagSample], counts[kTagMarker],
      counts[kTagMarker], counts[kTagUncore], counts[kTagUncore], counts[kTagUncore]};
  PackedCursor cols[16];
  for (std::size_t c = 0; c < 16; ++c) {
    if (!open_packed_column(src, sizes[c], cols[c], own)) {
      return truncated_at("truncated compressed block column", src.offset());
    }
  }

  // Resolve the deltas to absolute timestamps (same wrapping
  // accumulation as the compact codec), then counting-sort the tag sequence:
  // order[base[k] + j] is the stream position of kind k's j-th event.
  std::vector<Ns> deltas(static_cast<std::size_t>(n));
  Ns last_time = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    last_time += dcol.at(i);
    deltas[i] = last_time;
  }
  std::vector<std::uint32_t> order(static_cast<std::size_t>(n));
  std::uint64_t base[7] = {0, 0, 0, 0, 0, 0, 0};
  for (unsigned k = kTagAlloc; k <= kTagUncore; ++k) base[k + 1] = base[k] + counts[k];
  std::uint64_t cur[6] = {0, base[kTagAlloc], base[kTagFree], base[kTagSample],
                          base[kTagMarker], base[kTagUncore]};
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    order[static_cast<std::size_t>(cur[tags[i]]++)] = static_cast<std::uint32_t>(i);
  }

  Event* out = prepare(static_cast<std::size_t>(n));
  // Slots are assigned whole Event temporaries: assigning the bare
  // alternative would go through the variant's converting assignment,
  // which branches on the slot's previous (effectively random) index.
  const std::uint32_t* idx = order.data() + base[kTagAlloc];
  for (std::uint64_t j = 0; j < counts[kTagAlloc]; ++j) {
    const std::uint32_t i = idx[j];
    const std::uint64_t stack = cols[3].at(j);
    if (stack >= stack_count) {
      return truncated_at("alloc event references unknown stack", src.offset());
    }
    AllocEvent a;
    a.time = deltas[i];
    a.object_id = cols[0].at(j);
    a.address = cols[1].at(j);
    a.size = cols[2].at(j);
    a.stack = static_cast<StackId>(stack);
    a.kind = static_cast<AllocKind>(cols[4].at(j));
    out[i] = Event{a};
  }
  idx = order.data() + base[kTagFree];
  for (std::uint64_t j = 0; j < counts[kTagFree]; ++j) {
    const std::uint32_t i = idx[j];
    FreeEvent f;
    f.time = deltas[i];
    f.object_id = cols[5].at(j);
    out[i] = Event{f};
  }
  idx = order.data() + base[kTagSample];
  for (std::uint64_t j = 0; j < counts[kTagSample]; ++j) {
    const std::uint32_t i = idx[j];
    SampleEvent smp;
    smp.time = deltas[i];
    smp.address = cols[6].at(j);
    smp.weight = detail::packed_to_double(cols[7].at(j));
    smp.latency_ns = detail::packed_to_double(cols[8].at(j));
    smp.is_store = cols[9].at(j) != 0;
    smp.function_id = static_cast<std::uint32_t>(cols[10].at(j));
    out[i] = Event{smp};
  }
  idx = order.data() + base[kTagMarker];
  for (std::uint64_t j = 0; j < counts[kTagMarker]; ++j) {
    const std::uint32_t i = idx[j];
    MarkerEvent m;
    m.time = deltas[i];
    m.function_id = static_cast<std::uint32_t>(cols[11].at(j));
    m.is_enter = cols[12].at(j) != 0;
    out[i] = Event{m};
  }
  idx = order.data() + base[kTagUncore];
  for (std::uint64_t j = 0; j < counts[kTagUncore]; ++j) {
    const std::uint32_t i = idx[j];
    UncoreBwEvent u;
    u.time = deltas[i];
    u.period_ns = cols[13].at(j);
    u.read_gbs = detail::packed_to_double(cols[14].at(j));
    u.write_gbs = detail::packed_to_double(cols[15].at(j));
    out[i] = Event{u};
  }
  return {};
}

}  // namespace detail

/// Decodes one compressed block body straight into `out`, which must
/// hold `max_events` writable slots (the declared count is checked
/// against that bound before anything is written); `n_events` reports
/// the count actually decoded. The random-access reader uses this to
/// skip the per-event sink indirection. All-or-nothing: on error `out`
/// may hold partial garbage and nothing should be consumed.
inline Status decode_compressed_block_into(ByteReader& src, std::uint32_t stack_count,
                                           std::uint64_t max_events, std::uint64_t& n_events,
                                           Event* out) {
  return detail::decode_compressed_block_impl(src, stack_count, max_events, n_events,
                                              [out](std::size_t) { return out; });
}

/// Decodes one compressed block body from `src`, emitting each event in
/// stream order through `sink(const Event&)`. `max_events` bounds the
/// body's declared count before any allocation (callers pass the index
/// entry's count, or a remaining-bytes bound when scanning without an
/// index); `n_events` reports the declared count on success. Every error
/// carries the absolute offset it was detected at. The block decodes
/// all-or-nothing — the sink only ever sees events from a block that
/// decoded cleanly end to end.
template <typename Sink>
Status decode_compressed_block(ByteReader& src, std::uint32_t stack_count,
                               std::uint64_t max_events, std::uint64_t& n_events, Sink&& sink) {
  std::vector<Event> buf;
  if (Status s = detail::decode_compressed_block_impl(src, stack_count, max_events, n_events,
                                                      [&buf](std::size_t n) {
                                                        buf.resize(n);
                                                        return buf.data();
                                                      });
      !s.ok()) {
    return s;
  }
  for (const Event& e : buf) sink(e);
  return {};
}

/// Peeks a compressed block body's declared event count without decoding
/// its columns: {layout_ok, n_events}. Used by the lenient lint view.
inline Expected<std::uint64_t> peek_compressed_block_count(const unsigned char* data,
                                                           std::size_t size,
                                                           std::uint64_t base_offset) {
  ByteReader src(data, size, base_offset);
  std::uint8_t magic = 0;
  std::uint8_t layout = 0;
  if (!src.get(magic) || magic != kCompressedBlockMagic) {
    return truncated_at("not a compressed block (bad magic)", base_offset);
  }
  if (!src.get(layout) || layout != kCompressedLayoutVersion) {
    return truncated_at("unsupported compressed block layout", src.offset());
  }
  std::uint64_t n = 0;
  if (!src.get_varint(n)) {
    return truncated_at("truncated compressed block header", src.offset());
  }
  return n;
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

/// Every fault of a v3 footer index, in the order the strict readers
/// meet them. Per block, in index order: an offset that does not chain
/// from the previous block's end (block 0's from the event section
/// start), an offset at or past the footer, an empty count, a first
/// timestamp before the previous block's, a non-positive byte size.
/// Then an event section that no block covers, and counts that do not
/// sum to the header total. The `trace-v3-index` lint rule reports all.
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
    total += e.count & kBlockCountMask;  // bit 63 flags compression, not count
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
