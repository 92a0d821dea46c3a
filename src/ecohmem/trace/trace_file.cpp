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
  BlockEmitter(std::ostream& out, std::uint64_t block_events)
      : out_(out), block_events_(std::max<std::uint64_t>(1, block_events)) {}

  /// Writes the header; the event count is its last 8 bytes (see
  /// codec::encode_header), so `offset() - 8` is where it lives.
  Status header(const StackTable& stacks, const FunctionTable& functions, double sample_rate_hz,
                const bom::ModuleTable& modules, std::uint64_t event_count) {
    codec::encode_header(buf_, stacks, functions, sample_rate_hz, modules, event_count);
    return flush();
  }

  /// Encodes one event straight into the open block's buffer, opening a
  /// block (and its index entry) at its first event and flushing it once
  /// it holds `block_events` events. The delta base resets per block, so
  /// blocks decode independently.
  Status add(const Event& e) {
    if (open_events_ == 0) {
      entries_.push_back({offset_, 0, event_time(e)});
      last_time_ = 0;
    }
    codec::encode_event_compact(buf_, e, last_time_);
    if (++open_events_ < block_events_) return {};
    return close_block();
  }

  /// Closes a partial open block, then writes the footer index and the
  /// trailer.
  Status footer() {
    if (open_events_ > 0) {
      if (Status s = close_block(); !s.ok()) return s;
    }
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
  Status close_block() {
    entries_.back().count = open_events_;
    open_events_ = 0;
    return flush();
  }

  Status flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    offset_ += buf_.size();
    buf_.clear();  // keeps the capacity for the next block
    if (!out_.good()) return unexpected("trace write failed (I/O error)");
    return {};
  }

  std::ostream& out_;
  const std::uint64_t block_events_;
  std::string buf_;
  std::vector<codec::IndexEntry> entries_;
  std::uint64_t offset_ = 0;
  std::uint64_t open_events_ = 0;  ///< events in the open block
  Ns last_time_ = 0;               ///< the open block's delta base
};

}  // namespace

Status write_trace(std::ostream& out, const Trace& trace, const bom::ModuleTable& modules,
                   const TraceWriteOptions& options) {
  BlockEmitter emitter(out, options.block_events);
  if (Status s = emitter.header(trace.stacks, trace.functions, trace.sample_rate_hz, modules,
                                trace.events.size());
      !s.ok()) {
    return s;
  }
  for (const Event& e : trace.events) {
    if (Status s = emitter.add(e); !s.ok()) return s;
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
  explicit Impl(std::uint64_t block_events) : emitter(out, block_events) {}

  std::ofstream out;
  BlockEmitter emitter;
  std::uint64_t count_field_offset = 0;  ///< where the header's event count lives
  std::uint64_t total = 0;
  std::uint32_t stack_count = 0;
  bool finished = false;
};

TraceBlockWriter::TraceBlockWriter() = default;
TraceBlockWriter::TraceBlockWriter(TraceBlockWriter&&) noexcept = default;
TraceBlockWriter& TraceBlockWriter::operator=(TraceBlockWriter&&) noexcept = default;
TraceBlockWriter::~TraceBlockWriter() = default;

Expected<TraceBlockWriter> TraceBlockWriter::create(const std::string& path,
                                                    const StackTable& stacks,
                                                    const FunctionTable& functions,
                                                    const bom::ModuleTable& modules,
                                                    double sample_rate_hz,
                                                    std::uint64_t block_events) {
  TraceBlockWriter w;
  w.impl_ = std::make_unique<Impl>(block_events);
  Impl& impl = *w.impl_;
  impl.out.open(path, std::ios::binary);
  if (!impl.out) return unexpected("cannot open for writing: " + path);
  impl.stack_count = static_cast<std::uint32_t>(stacks.size());
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
  ++impl.total;
  return impl.emitter.add(e);
}

Status TraceBlockWriter::finish() {
  Impl& impl = *impl_;
  if (impl.finished) return unexpected("TraceBlockWriter::finish called twice");
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
