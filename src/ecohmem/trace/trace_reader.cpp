#include "ecohmem/trace/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <istream>
#include <limits>
#include <utility>

#include "ecohmem/runtime/worker_pool.hpp"
#include "ecohmem/trace/codec.hpp"

namespace ecohmem::trace {

namespace {

/// Events `for_each` decodes per chunk of an uncompressed block: bounds
/// its scratch buffer however large a block (or a v1/v2 event section)
/// is. A compressed block decodes whole, being all-or-nothing.
constexpr std::uint64_t kForEachChunkEvents = 16 * 1024;

/// Reads the rest of a stream into memory. A seekable stream is sized
/// first and read once into a buffer of that size; a pipe (or anything
/// else `tellg` cannot place) is read in chunks, as is anything past the
/// size seen. A stream that goes bad mid-read (I/O error, exception from
/// the stream buffer) is reported as an error — `gcount() == 0` alone
/// cannot distinguish EOF from failure, so the loop's exit condition
/// must be double-checked with `bad()`.
Expected<std::string> slurp_stream(std::istream& in) {
  std::string bytes;
  if (const std::istream::pos_type at = in.tellg(); at != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.clear();
    if (!in.seekg(at)) return unexpected("cannot seek stream back after sizing it");
    if (end != std::istream::pos_type(-1) && end > at) {
      bytes.resize(static_cast<std::size_t>(end - at));
      in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      bytes.resize(static_cast<std::size_t>(in.gcount()));
    }
  }
  char chunk[256 * 1024];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    return unexpected("stream read error after " + std::to_string(bytes.size()) + " bytes");
  }
  return bytes;
}

/// Reads the whole file behind an already-open descriptor. Used by the
/// mmap fallback so the fallback sees the very same file `fstat` saw
/// (re-opening by path would race a concurrent rename/replace).
Expected<std::string> slurp_fd(int fd, std::size_t size_hint) {
  std::string bytes;
  bytes.reserve(size_hint);
  if (::lseek(fd, 0, SEEK_SET) < 0) return unexpected("cannot seek trace fd");
  char chunk[256 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return unexpected("read error after " + std::to_string(bytes.size()) + " bytes");
    }
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  return bytes;
}

}  // namespace

// --------------------------------------------------------------------------
// TraceReader

struct TraceReader::Impl {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  bool is_mmap = false;
  std::string owned;  ///< backing storage when not mmapped
  codec::HeaderInfo header;
  std::vector<TraceBlockInfo> blocks;
  SalvageManifest manifest;  ///< meaningful only when manifest.salvaged

  ~Impl() {
    if (is_mmap && data != nullptr) {
      ::munmap(const_cast<unsigned char*>(static_cast<const unsigned char*>(data)), size);
    }
  }

  /// Decodes + validates the header and (for v3) the footer index;
  /// builds the block table. Called once from open/from_stream. In
  /// salvage mode the block table holds only the recoverable blocks and
  /// the header count is rewritten to the recovered total, so every
  /// downstream accessor works unchanged on a damaged file.
  Status init(bool salvage) {
    codec::ByteReader r(data, size, 0);
    auto header_or = codec::decode_header(r);
    if (!header_or.has_value()) return unexpected(header_or.error());
    header = std::move(*header_or);

    if (salvage) {
      SalvagePlan plan = build_salvage_plan(data, size, header);
      manifest = std::move(plan.manifest);
      blocks = std::move(plan.blocks);
      header.event_count = manifest.events_recovered;
      return {};
    }

    // Every encoded event is at least 2 bytes, so a count the file could
    // not physically hold is rejected before anything is allocated.
    if (header.event_count > size / 2 + 1) {
      return unexpected("trace declares " + std::to_string(header.event_count) +
                        " events at offset " + std::to_string(header.events_offset - 8) +
                        " but the file only holds " + std::to_string(size) + " bytes");
    }

    if (header.version == codec::kVersionIndexed) {
      auto index = codec::decode_index(data, size);
      if (!index.has_value()) return unexpected(index.error());
      if (Status s = codec::validate_index(*index, header.events_offset, header.event_count);
          !s.ok()) {
        return s;
      }
      blocks.reserve(index->entries.size());
      std::uint64_t first_index = 0;
      for (std::size_t i = 0; i < index->entries.size(); ++i) {
        const codec::IndexEntry& e = index->entries[i];
        const std::uint64_t end =
            i + 1 < index->entries.size() ? index->entries[i + 1].offset : index->footer_offset;
        TraceBlockInfo b;
        b.file_offset = e.offset;
        b.byte_size = end - e.offset;
        b.event_count = e.count & codec::kBlockCountMask;
        b.compressed = (e.count & codec::kBlockCompressedFlag) != 0;
        b.first_event_index = first_index;
        b.first_time = e.first_time;
        // Every event costs at least one body byte in either encoding
        // (tag byte / tag-column byte), so a count the span cannot hold
        // is index damage — reject before decode_block allocates for it.
        if (b.event_count > b.byte_size) {
          return unexpected("v3 index block " + std::to_string(i) + " declares " +
                            std::to_string(b.event_count) + " events in " +
                            std::to_string(b.byte_size) + " bytes at offset " +
                            std::to_string(e.offset));
        }
        blocks.push_back(b);
        first_index += b.event_count;
      }
      return {};
    }

    // v1/v2: one virtual block spanning the whole event section (the
    // events are one continuous stream, decodable only front to back).
    if (header.event_count > 0) {
      TraceBlockInfo b;
      b.file_offset = header.events_offset;
      b.byte_size = size - std::min<std::uint64_t>(header.events_offset, size);
      b.event_count = header.event_count;
      b.first_event_index = 0;
      blocks.push_back(b);
    }
    return {};
  }

  /// The one block decoder behind decode_block_into and for_each. Events
  /// decode in chunks of at most `chunk` (a compressed body is always one
  /// chunk): `slots(n)` returns room for the next n events and
  /// `done(events, n, end_offset)` receives them once decoded, with the
  /// file offset the decode has consumed up to. Every per-block check —
  /// compressed body count, first timestamp, trailing bytes — lives
  /// here, so both callers accept and reject the same bytes.
  template <typename Slots, typename Done>
  Status decode(std::size_t i, std::uint64_t chunk, Slots&& slots, Done&& done) const {
    const TraceBlockInfo& b = blocks.at(i);
    codec::ByteReader br(data + b.file_offset, static_cast<std::size_t>(b.byte_size),
                         b.file_offset);
    const auto stack_count = static_cast<std::uint32_t>(header.stacks.size());
    const bool v3 = header.version == codec::kVersionIndexed;
    const auto check_first_time = [&](const Event& first) -> Status {
      if (!v3 || event_time(first) == b.first_time) return {};
      return unexpected("v3 index block " + std::to_string(i) +
                        " first timestamp disagrees with its events at offset " +
                        std::to_string(b.file_offset));
    };

    if (b.compressed) {
      Event* out = slots(b.event_count);
      std::uint64_t body_events = 0;
      if (Status s = codec::decode_compressed_block_into(br, stack_count, b.event_count,
                                                         body_events, out);
          !s.ok()) {
        return s;
      }
      if (body_events != b.event_count) {
        return unexpected("v3 index block " + std::to_string(i) + " declares " +
                          std::to_string(b.event_count) +
                          " events but its compressed body holds " +
                          std::to_string(body_events) + " at offset " +
                          std::to_string(b.file_offset));
      }
      if (b.event_count > 0) {
        if (Status s = check_first_time(out[0]); !s.ok()) return s;
      }
      done(out, b.event_count, br.offset());
    } else {
      Ns last_time = 0;
      for (std::uint64_t j = 0; j < b.event_count;) {
        const std::uint64_t n = std::min(b.event_count - j, chunk);
        Event* out = slots(n);
        if (header.version == codec::kVersionPlain) {
          for (std::uint64_t k = 0; k < n; ++k) {
            if (Status s = codec::decode_event_plain(br, stack_count, out[k]); !s.ok()) return s;
          }
        } else if (Status s = codec::decode_compact_events(br, stack_count, last_time, out, n);
                   !s.ok()) {
          return s;
        }
        if (j == 0) {
          if (Status s = check_first_time(out[0]); !s.ok()) return s;
        }
        done(out, n, br.offset());
        j += n;
      }
    }
    // v3 blocks are exactly sized; v1/v2's virtual block may carry
    // trailing bytes (historically tolerated).
    if (v3 && br.remaining() != 0) {
      return unexpected("v3 index block " + std::to_string(i) + " has " +
                        std::to_string(br.remaining()) + " undecoded bytes at offset " +
                        std::to_string(br.offset()));
    }
    return {};
  }
};

TraceReader::TraceReader() : impl_(std::make_unique<Impl>()) {}
TraceReader::TraceReader(TraceReader&&) noexcept = default;
TraceReader& TraceReader::operator=(TraceReader&&) noexcept = default;
TraceReader::~TraceReader() = default;

Expected<TraceReader> TraceReader::open(const std::string& path, TraceOpenOptions options) {
  TraceReader reader;
  Impl& impl = *reader.impl_;

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return unexpected("cannot open trace: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return unexpected("cannot stat trace: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  bool mapped = false;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      // Re-stat after mapping: a writer truncating the file between
      // fstat and mmap (or still truncating it now) would leave pages
      // past the new EOF that SIGBUS on first touch. A shrunk file is
      // an error up front, not a crash at decode time.
      struct stat st2 {};
      if (::fstat(fd, &st2) != 0 || static_cast<std::size_t>(st2.st_size) < size) {
        ::munmap(map, size);
        ::close(fd);
        return unexpected("trace shrank while opening (concurrent truncation): " + path);
      }
      impl.data = static_cast<const unsigned char*>(map);
      impl.size = size;
      impl.is_mmap = true;
      mapped = true;
    }
  }
  if (!mapped) {
    // mmap unavailable (or empty file): fall back to a private copy,
    // read through the descriptor we already validated — re-opening by
    // path could hand us a different file.
    auto bytes = slurp_fd(fd, size);
    if (!bytes.has_value()) {
      ::close(fd);
      return unexpected("cannot read trace " + path + ": " + bytes.error());
    }
    impl.owned = std::move(*bytes);
    impl.data = reinterpret_cast<const unsigned char*>(impl.owned.data());
    impl.size = impl.owned.size();
  }
  ::close(fd);

  if (Status s = impl.init(options.salvage); !s.ok()) return unexpected(s.error());
  return reader;
}

Expected<TraceReader> TraceReader::from_stream(std::istream& in, TraceOpenOptions options) {
  TraceReader reader;
  Impl& impl = *reader.impl_;
  auto bytes = slurp_stream(in);
  if (!bytes.has_value()) return unexpected("cannot read trace stream: " + bytes.error());
  impl.owned = std::move(*bytes);
  impl.data = reinterpret_cast<const unsigned char*>(impl.owned.data());
  impl.size = impl.owned.size();
  if (Status s = impl.init(options.salvage); !s.ok()) return unexpected(s.error());
  return reader;
}

std::uint32_t TraceReader::version() const { return impl_->header.version; }
bool TraceReader::indexed() const { return impl_->header.version == codec::kVersionIndexed; }
bool TraceReader::mapped() const { return impl_->is_mmap; }
double TraceReader::sample_rate_hz() const { return impl_->header.sample_rate_hz; }
const bom::ModuleTable& TraceReader::modules() const { return impl_->header.modules; }
const StackTable& TraceReader::stacks() const { return impl_->header.stacks; }
const FunctionTable& TraceReader::functions() const { return impl_->header.functions; }
std::uint64_t TraceReader::event_count() const { return impl_->header.event_count; }
std::uint64_t TraceReader::byte_size() const { return impl_->size; }
std::size_t TraceReader::block_count() const { return impl_->blocks.size(); }
const TraceBlockInfo& TraceReader::block(std::size_t i) const { return impl_->blocks.at(i); }
const SalvageManifest& TraceReader::manifest() const { return impl_->manifest; }

Status TraceReader::decode_block_into(std::size_t i, Event* out) const {
  return impl_->decode(
      i, std::numeric_limits<std::uint64_t>::max(),
      [&out](std::uint64_t n) { return std::exchange(out, out + n); },
      [](const Event*, std::uint64_t, std::uint64_t) {});
}

Status TraceReader::decode_block(std::size_t i, std::vector<Event>& out) const {
  out.resize(static_cast<std::size_t>(impl_->blocks.at(i).event_count));
  return decode_block_into(i, out.data());
}

Expected<TraceBundle> TraceReader::read_all(int threads) const {
  const Impl& impl = *impl_;
  TraceBundle bundle;
  bundle.trace.stacks = impl.header.stacks;
  bundle.trace.functions = impl.header.functions;
  bundle.trace.sample_rate_hz = impl.header.sample_rate_hz;
  bundle.modules = impl.header.modules;
  bundle.coverage.events_seen = impl.header.event_count;
  bundle.coverage.events_declared =
      impl.manifest.salvaged ? impl.manifest.events_declared : impl.header.event_count;
  bundle.coverage.salvaged = impl.manifest.salvaged;
  bundle.trace.events.resize(static_cast<std::size_t>(impl.header.event_count));

  const std::size_t want = threads < 1 ? 1 : static_cast<std::size_t>(threads);
  const std::size_t workers = std::min(want, impl.blocks.size());

  if (workers <= 1) {
    for (std::size_t b = 0; b < impl.blocks.size(); ++b) {
      if (Status s =
              decode_block_into(b, bundle.trace.events.data() + impl.blocks[b].first_event_index);
          !s.ok()) {
        return unexpected(s.error());
      }
    }
    return bundle;
  }

  // Parallel block decode: workers fill disjoint event slices, so the
  // materialized vector is byte-for-byte what serial decode produces.
  // Blocks are strided across workers for balance.
  std::vector<Status> worker_status(workers);
  std::vector<std::size_t> failed_block(workers, impl.blocks.size());
  runtime::WorkerPool pool(workers);
  Event* events = bundle.trace.events.data();
  pool.run([&](std::size_t w) {
    for (std::size_t b = w; b < impl.blocks.size(); b += workers) {
      Status s = decode_block_into(b, events + impl.blocks[b].first_event_index);
      if (!s.ok()) {
        worker_status[w] = std::move(s);
        failed_block[w] = b;
        return;
      }
    }
  });
  // Report the earliest failing block so the error is thread-count
  // independent.
  std::size_t first_fail = impl.blocks.size();
  std::size_t fail_worker = workers;
  for (std::size_t w = 0; w < workers; ++w) {
    if (!worker_status[w].ok() && failed_block[w] < first_fail) {
      first_fail = failed_block[w];
      fail_worker = w;
    }
  }
  if (fail_worker != workers) return unexpected(worker_status[fail_worker].error());
  return bundle;
}

Status TraceReader::for_each(const std::function<void(const Event&)>& fn) const {
  const Impl& impl = *impl_;
  // Mapped file pages count toward the resident set, so consumed pages
  // are handed back as the walk advances; without this a front-to-back
  // walk would end with the whole file resident. A released page faults
  // back in from the file if touched again, so concurrent decodes of
  // the same mapping see the same bytes.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t released = 0;  ///< mapping bytes [0, released) handed back
  std::vector<Event> chunk;
  for (std::size_t b = 0; b < impl.blocks.size(); ++b) {
    Status s = impl.decode(
        b, kForEachChunkEvents,
        [&chunk](std::uint64_t n) {
          chunk.resize(static_cast<std::size_t>(n));
          return chunk.data();
        },
        [&](const Event* events, std::uint64_t n, std::uint64_t end_offset) {
          for (std::uint64_t j = 0; j < n; ++j) fn(events[j]);
          const std::size_t end = static_cast<std::size_t>(end_offset) / page * page;
          if (impl.is_mmap && end > released) {
            ::madvise(const_cast<unsigned char*>(impl.data) + released, end - released,
                      MADV_DONTNEED);
            released = end;
          }
        });
    if (!s.ok()) return s;
  }
  return {};
}

}  // namespace ecohmem::trace
