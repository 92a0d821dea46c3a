#include "ecohmem/trace/trace_file.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/trace_reader.hpp"

namespace ecohmem::trace {

namespace {

/// The one v3 emitter: header, blocks, footer index and trailer. Both
/// `write_trace` and `TraceBlockWriter` write through it, so the two lay
/// out the same bytes by construction. It tracks absolute file offsets
/// itself and flushes its buffer once per block.
class BlockEmitter {
 public:
  explicit BlockEmitter(std::ostream& out) : out_(out) {}

  /// Writes the header; the event count is its last 8 bytes (see
  /// codec::encode_header), so `offset() - 8` is where it lives.
  Status header(const StackTable& stacks, const FunctionTable& functions, double sample_rate_hz,
                const bom::ModuleTable& modules, std::uint64_t event_count) {
    codec::encode_header(buf_, stacks, functions, sample_rate_hz, modules, event_count);
    return flush();
  }

  /// Encodes `n` (>= 1) time-ordered events as one block and records its
  /// index entry. Uncompressed events are encoded straight into the
  /// buffer; the delta base resets per block, so blocks decode
  /// independently.
  Status block(const Event* events, std::uint64_t n, bool compress) {
    codec::IndexEntry entry;
    entry.offset = offset_;
    entry.count = compress ? (n | codec::kBlockCompressedFlag) : n;
    entry.first_time = event_time(events[0]);
    entries_.push_back(entry);
    if (compress) {
      codec::encode_compressed_block(buf_, events, static_cast<std::size_t>(n));
    } else {
      Ns last_time = 0;
      for (std::uint64_t i = 0; i < n; ++i) codec::encode_event_compact(buf_, events[i], last_time);
    }
    return flush();
  }

  /// Writes the footer index and the trailer.
  Status footer() {
    const std::uint64_t footer_offset = offset_;
    for (const auto& e : entries_) {
      codec::put(buf_, e.offset);
      codec::put(buf_, e.count);
      codec::put(buf_, e.first_time);
    }
    codec::put(buf_, static_cast<std::uint64_t>(entries_.size()));
    codec::put(buf_, footer_offset);
    buf_.append(codec::kIndexMagic, sizeof(codec::kIndexMagic));
    return flush();
  }

  /// Bytes written so far.
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  Status flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    offset_ += buf_.size();
    buf_.clear();  // keeps the capacity for the next block
    if (!out_.good()) return unexpected("trace write failed (I/O error)");
    return {};
  }

  std::ostream& out_;
  std::string buf_;
  std::vector<codec::IndexEntry> entries_;
  std::uint64_t offset_ = 0;
};

}  // namespace

Status write_trace(std::ostream& out, const Trace& trace, const bom::ModuleTable& modules,
                   const TraceWriteOptions& options) {
  BlockEmitter emitter(out);
  const std::uint64_t n = trace.events.size();
  if (Status s = emitter.header(trace.stacks, trace.functions, trace.sample_rate_hz, modules, n);
      !s.ok()) {
    return s;
  }
  const std::uint64_t block_events = std::max<std::uint64_t>(1, options.block_events);
  for (std::uint64_t i = 0; i < n; i += block_events) {
    if (Status s = emitter.block(trace.events.data() + i, std::min(block_events, n - i),
                                 options.compress);
        !s.ok()) {
      return s;
    }
  }
  return emitter.footer();
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
  BlockEmitter emitter{out};
  std::uint64_t count_field_offset = 0;  ///< where the header's event count lives
  std::uint64_t block_events = 0;
  std::uint64_t total = 0;
  std::uint32_t stack_count = 0;
  bool compress = false;
  std::vector<Event> pending;  ///< the open block's events
  bool finished = false;

  Status close_block() {
    Status s = emitter.block(pending.data(), pending.size(), compress);
    pending.clear();
    return s;
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
  // Event count is unknown until finish(); write 0 and patch it there.
  if (Status s = impl.emitter.header(stacks, functions, sample_rate_hz, modules, 0); !s.ok()) {
    return unexpected(s.error());
  }
  impl.count_field_offset = impl.emitter.offset() - sizeof(std::uint64_t);
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
  impl.pending.push_back(e);
  ++impl.total;
  if (impl.pending.size() == impl.block_events) return impl.close_block();
  return {};
}

Status TraceBlockWriter::finish() {
  Impl& impl = *impl_;
  if (impl.finished) return unexpected("TraceBlockWriter::finish called twice");
  if (!impl.pending.empty()) {
    if (Status s = impl.close_block(); !s.ok()) return s;
  }
  if (Status s = impl.emitter.footer(); !s.ok()) return s;
  impl.out.seekp(static_cast<std::streamoff>(impl.count_field_offset));
  impl.out.write(reinterpret_cast<const char*>(&impl.total), sizeof(impl.total));
  impl.out.flush();
  if (!impl.out.good()) return unexpected("trace write failed (I/O error)");
  impl.finished = true;
  return {};
}

std::uint64_t TraceBlockWriter::events_written() const { return impl_->total; }

}  // namespace ecohmem::trace
