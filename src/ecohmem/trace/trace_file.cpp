#include "ecohmem/trace/trace_file.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/trace_reader.hpp"

namespace ecohmem::trace {

namespace {

/// Flush threshold for the write-side string buffer: large enough that
/// stream writes are block-sized, small enough to bound writer memory.
constexpr std::size_t kFlushBytes = 1u << 20;

Status flush_buffer(std::ostream& out, std::string& buf) {
  if (!buf.empty()) {
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  }
  if (!out.good()) return unexpected("trace write failed (I/O error)");
  return {};
}

Status write_events_v3(std::ostream& out, const Trace& trace, std::uint64_t events_offset,
                       std::uint64_t block_events, bool compress) {
  std::string buf;
  std::vector<codec::IndexEntry> entries;
  std::uint64_t offset = events_offset;
  const std::uint64_t n = trace.events.size();
  // One reservation serves every block: flush_buffer clears the string
  // but keeps its capacity.
  buf.reserve(static_cast<std::size_t>(std::min(block_events, n)) * 17);
  for (std::uint64_t i = 0; i < n;) {
    const std::uint64_t count = std::min(block_events, n - i);
    codec::IndexEntry entry;
    entry.offset = offset;
    entry.count = compress ? (count | codec::kBlockCompressedFlag) : count;
    entry.first_time = event_time(trace.events[i]);
    if (compress) {
      codec::encode_compressed_block(buf, trace.events.data() + i, static_cast<std::size_t>(count));
      i += count;
    } else {
      Ns last_time = 0;  // delta base resets per block: blocks decode independently
      for (std::uint64_t j = 0; j < count; ++j, ++i) {
        codec::encode_event_compact(buf, trace.events[i], last_time);
      }
    }
    offset += buf.size();
    entries.push_back(entry);
    if (Status s = flush_buffer(out, buf); !s.ok()) return s;
  }
  const std::uint64_t footer_offset = offset;
  for (const auto& e : entries) {
    codec::put(buf, e.offset);
    codec::put(buf, e.count);
    codec::put(buf, e.first_time);
  }
  codec::put(buf, static_cast<std::uint64_t>(entries.size()));
  codec::put(buf, footer_offset);
  buf.append(codec::kIndexMagic, sizeof(codec::kIndexMagic));
  return flush_buffer(out, buf);
}

}  // namespace

Status write_trace(std::ostream& out, const Trace& trace, const bom::ModuleTable& modules,
                   const TraceWriteOptions& options) {
  const std::uint32_t version = options.indexed  ? codec::kVersionIndexed
                                : options.compact ? codec::kVersionCompact
                                                  : codec::kVersionPlain;
  if (options.compress && version != codec::kVersionIndexed) {
    return unexpected("compressed blocks require the v3 indexed format");
  }
  std::string buf;
  codec::encode_header(buf, trace.stacks, trace.functions, trace.sample_rate_hz, modules,
                       version, trace.events.size());
  const std::uint64_t events_offset = buf.size();
  if (Status s = flush_buffer(out, buf); !s.ok()) return s;

  if (version == codec::kVersionIndexed) {
    return write_events_v3(out, trace, events_offset,
                           std::max<std::uint64_t>(1, options.block_events), options.compress);
  }
  if (version == codec::kVersionCompact) {
    Ns last_time = 0;
    for (const auto& e : trace.events) {
      codec::encode_event_compact(buf, e, last_time);
      if (buf.size() >= kFlushBytes) {
        if (Status s = flush_buffer(out, buf); !s.ok()) return s;
      }
    }
    return flush_buffer(out, buf);
  }
  for (const auto& e : trace.events) {
    codec::encode_event_plain(buf, e);
    if (buf.size() >= kFlushBytes) {
      if (Status s = flush_buffer(out, buf); !s.ok()) return s;
    }
  }
  return flush_buffer(out, buf);
}

Expected<TraceBundle> read_trace(std::istream& in) {
  const Expected<TraceReader> reader = TraceReader::from_stream(in);
  if (!reader.has_value()) return unexpected(reader.error());
  return reader->read_all();
}

Status save_trace(const std::string& path, const Trace& trace, const bom::ModuleTable& modules,
                  const TraceWriteOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return unexpected("cannot open for writing: " + path);
  return write_trace(out, trace, modules, options);
}

Expected<TraceBundle> load_trace(const std::string& path) {
  const Expected<TraceReader> reader = TraceReader::open(path);
  if (!reader.has_value()) return unexpected(reader.error());
  return reader->read_all();
}

// --------------------------------------------------------------------------
// TraceBlockWriter

struct TraceBlockWriter::Impl {
  std::ofstream out;
  std::string buf;
  std::vector<codec::IndexEntry> entries;
  std::uint64_t offset = 0;             ///< bytes flushed to the file so far
  std::uint64_t count_field_offset = 0; ///< where the header's event count lives
  std::uint64_t block_events = 0;
  std::uint64_t in_block = 0;
  std::uint64_t total = 0;
  std::uint32_t stack_count = 0;
  Ns last_time = 0;
  Ns block_first = 0;
  bool compress = false;
  /// Compressed bodies are columnar, so events of the open block are
  /// held back until close_block; empty (and unused) when !compress.
  std::vector<Event> pending;
  bool finished = false;

  Status close_block() {
    if (compress) {
      codec::encode_compressed_block(buf, pending.data(), pending.size());
      pending.clear();
    }
    codec::IndexEntry entry;
    entry.offset = offset;
    entry.count = compress ? (in_block | codec::kBlockCompressedFlag) : in_block;
    entry.first_time = block_first;
    entries.push_back(entry);
    offset += buf.size();
    in_block = 0;
    return flush_buffer(out, buf);
  }
};

TraceBlockWriter::TraceBlockWriter() : impl_(std::make_unique<Impl>()) {}
TraceBlockWriter::TraceBlockWriter(TraceBlockWriter&&) noexcept = default;
TraceBlockWriter& TraceBlockWriter::operator=(TraceBlockWriter&&) noexcept = default;
TraceBlockWriter::~TraceBlockWriter() = default;

Expected<TraceBlockWriter> TraceBlockWriter::create(const std::string& path,
                                                    const StackTable& stacks,
                                                    const FunctionTable& functions,
                                                    const bom::ModuleTable& modules,
                                                    double sample_rate_hz,
                                                    std::uint64_t block_events, bool compress) {
  TraceBlockWriter w;
  Impl& impl = *w.impl_;
  impl.out.open(path, std::ios::binary);
  if (!impl.out) return unexpected("cannot open for writing: " + path);
  impl.block_events = std::max<std::uint64_t>(1, block_events);
  impl.stack_count = static_cast<std::uint32_t>(stacks.size());
  impl.compress = compress;
  // Event count is unknown until finish(); encode 0 and patch it later
  // (it is always the last 8 bytes of the header).
  codec::encode_header(impl.buf, stacks, functions, sample_rate_hz, modules,
                       codec::kVersionIndexed, 0);
  impl.count_field_offset = impl.buf.size() - sizeof(std::uint64_t);
  impl.offset = impl.buf.size();
  if (Status s = flush_buffer(impl.out, impl.buf); !s.ok()) return unexpected(s.error());
  return w;
}

Status TraceBlockWriter::add(const Event& e) {
  Impl& impl = *impl_;
  if (impl.finished) return unexpected("TraceBlockWriter::add after finish");
  if (const auto* a = std::get_if<AllocEvent>(&e)) {
    if (a->stack >= impl.stack_count) {
      return unexpected("alloc event references unknown stack " + std::to_string(a->stack));
    }
  }
  if (impl.in_block == 0) {
    impl.block_first = event_time(e);
    impl.last_time = 0;
  }
  if (impl.compress) {
    impl.pending.push_back(e);
  } else {
    codec::encode_event_compact(impl.buf, e, impl.last_time);
  }
  ++impl.in_block;
  ++impl.total;
  if (impl.in_block == impl.block_events) return impl.close_block();
  return {};
}

Status TraceBlockWriter::finish() {
  Impl& impl = *impl_;
  if (impl.finished) return unexpected("TraceBlockWriter::finish called twice");
  if (impl.in_block > 0) {
    if (Status s = impl.close_block(); !s.ok()) return s;
  }
  const std::uint64_t footer_offset = impl.offset;
  for (const auto& entry : impl.entries) {
    codec::put(impl.buf, entry.offset);
    codec::put(impl.buf, entry.count);
    codec::put(impl.buf, entry.first_time);
  }
  codec::put(impl.buf, static_cast<std::uint64_t>(impl.entries.size()));
  codec::put(impl.buf, footer_offset);
  impl.buf.append(codec::kIndexMagic, sizeof(codec::kIndexMagic));
  if (Status s = flush_buffer(impl.out, impl.buf); !s.ok()) return s;
  impl.out.seekp(static_cast<std::streamoff>(impl.count_field_offset));
  impl.out.write(reinterpret_cast<const char*>(&impl.total), sizeof(impl.total));
  impl.out.flush();
  if (!impl.out.good()) return unexpected("trace write failed (I/O error)");
  impl.finished = true;
  return {};
}

std::uint64_t TraceBlockWriter::events_written() const { return impl_->total; }

}  // namespace ecohmem::trace
