// Tests for the v3 trace format: round trips (bulk writer and streaming
// block writer), the mmap TraceReader's block API and read_all, the
// bounded-memory for_each walk, and malformed-index rejection — every
// corruption must fail with an offset-bearing Status, never crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"
#include "trace_digest.hpp"

namespace ecohmem::trace {
namespace {

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

bom::ModuleTable test_modules() {
  bom::ModuleTable mt;
  mt.add_module("a.x", 1 << 20, 2 << 20);
  mt.add_module("b.so", 1 << 20, 1 << 20);
  return mt;
}

/// Deterministic event generator shared by the in-memory and streaming
/// tests: a mix of allocs, frees, samples, uncore readings and markers
/// with non-decreasing timestamps, delivered through a callback so large
/// streams never have to be materialized.
void synth_events(std::size_t n, std::uint64_t seed, StackId s0, StackId s1, std::uint32_t fn,
                  const std::function<void(const Event&)>& sink) {
  std::uint64_t x = seed * 2654435761ull + 1;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  Ns time = 0;
  std::uint64_t next_id = 1;
  std::uint64_t next_addr = 0x100000;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // object id, address
  for (std::size_t i = 0; i < n; ++i) {
    time += rnd() % 50;
    switch (rnd() % 8) {
      case 0:
      case 1: {
        const Bytes size = 64 + rnd() % 8192;
        sink(AllocEvent{time, next_id, next_addr, size, (i % 2) != 0 ? s0 : s1,
                        AllocKind::kMalloc});
        live.emplace_back(next_id, next_addr);
        next_addr += size + 64;
        ++next_id;
        break;
      }
      case 2:
        if (live.empty()) {
          sink(MarkerEvent{time, fn, true});
        } else {
          const std::size_t k = rnd() % live.size();
          sink(FreeEvent{time, live[k].first});
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        }
        break;
      case 3:
        sink(UncoreBwEvent{time, 1000 + rnd() % 1000, static_cast<double>(rnd() % 100) * 0.25,
                           static_cast<double>(rnd() % 50) * 0.25});
        break;
      default:
        sink(SampleEvent{time,
                         live.empty() ? 0x10 : live[rnd() % live.size()].second + rnd() % 64,
                         1.0 + static_cast<double>(rnd() % 8) * 0.5,
                         static_cast<double>(rnd() % 400), rnd() % 4 == 0, fn});
    }
  }
}

Trace synth_trace(std::size_t n, std::uint64_t seed) {
  Trace t;
  t.sample_rate_hz = 1000.0;
  const StackId s0 = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const StackId s1 = t.stacks.intern(bom::CallStack{{{0, 0x20}, {1, 0x8}}});
  const std::uint32_t fn = t.functions.intern("synth");
  synth_events(n, seed, s0, s1, fn, [&t](const Event& e) { t.events.push_back(e); });
  return t;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_u64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, 8);
  return v;
}

void put_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  std::memcpy(bytes.data() + off, &v, 8);
}

/// Writes `t` as a v3 file and returns its bytes.
std::string v3_file_bytes(const std::string& path, const Trace& t,
                          const bom::ModuleTable& modules, std::uint64_t block_events) {
  TraceWriteOptions opt;
  opt.block_events = block_events;
  EXPECT_TRUE(save_trace(path, t, modules, opt).ok());
  return read_bytes(path);
}

TEST(TraceV3, SaveLoadRoundTripMultiBlock) {
  const Trace original = synth_trace(10'000, 42);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("v3_roundtrip.trc");
  v3_file_bytes(path, original, modules, 256);

  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded->modules.size(), modules.size());
  EXPECT_EQ(trace_digest(loaded->trace, loaded->modules), trace_digest(original, modules));
}

/// A stream over `bytes` that cannot seek (like a pipe): `tellg` fails,
/// so `from_stream` must fall back to reading it in chunks.
class PipeStream : public std::istream {
 public:
  explicit PipeStream(std::string bytes) : std::istream(nullptr), buf_(std::move(bytes)) {
    rdbuf(&buf_);
  }

 private:
  class Buf : public std::streambuf {
   public:
    explicit Buf(std::string bytes) : bytes_(std::move(bytes)) {}

   protected:
    int_type underflow() override {
      if (pos_ >= bytes_.size()) return traits_type::eof();
      const std::size_t run = std::min<std::size_t>(bytes_.size() - pos_, 1000);
      setg(bytes_.data() + pos_, bytes_.data() + pos_, bytes_.data() + pos_ + run);
      pos_ += run;
      return traits_type::to_int_type(*gptr());
    }

   private:
    std::string bytes_;
    std::size_t pos_ = 0;
  };
  Buf buf_;
};

TEST(TraceV3, FromStreamSeekableAndPipeAgree) {
  const Trace original = synth_trace(10'000, 11);
  const bom::ModuleTable modules = test_modules();
  const std::string bytes = v3_file_bytes(tmp_path("v3_stream.trc"), original, modules, 256);
  const std::uint64_t expected = trace_digest(original, modules);

  PipeStream pipe(bytes);
  ASSERT_EQ(pipe.tellg(), std::istream::pos_type(-1)) << "the pipe must not be seekable";
  const auto from_pipe = read_trace(pipe);
  ASSERT_TRUE(from_pipe.has_value()) << from_pipe.error();

  std::istringstream seekable(bytes);
  const auto from_string = read_trace(seekable);
  ASSERT_TRUE(from_string.has_value()) << from_string.error();

  // A seekable stream is read from where it stands, not from its start.
  std::istringstream offset("junk" + bytes);
  offset.seekg(4);
  const auto from_offset = read_trace(offset);
  ASSERT_TRUE(from_offset.has_value()) << from_offset.error();

  for (const TraceBundle* bundle : {&*from_pipe, &*from_string, &*from_offset}) {
    EXPECT_EQ(trace_digest(bundle->trace, bundle->modules), expected);
    EXPECT_EQ(bundle->trace.sample_rate_hz, original.sample_rate_hz);
    EXPECT_EQ(bundle->coverage.events_seen, from_pipe->coverage.events_seen);
    EXPECT_EQ(bundle->coverage.events_declared, from_pipe->coverage.events_declared);
    EXPECT_EQ(bundle->coverage.salvaged, from_pipe->coverage.salvaged);
  }
}

TEST(TraceV3, ReaderExposesBlockMetadata) {
  const Trace original = synth_trace(10'000, 7);
  const std::string path = tmp_path("v3_blocks.trc");
  v3_file_bytes(path, original, test_modules(), 256);

  const auto reader = TraceReader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_EQ(reader->version(), 3u);
  EXPECT_EQ(reader->event_count(), 10'000u);
  ASSERT_EQ(reader->block_count(), static_cast<std::size_t>((10'000 + 255) / 256));

  std::uint64_t cumulative = 0;
  Ns last_first_time = 0;
  for (std::size_t i = 0; i < reader->block_count(); ++i) {
    const TraceBlockInfo& b = reader->block(i);
    EXPECT_EQ(b.first_event_index, cumulative) << "block " << i;
    EXPECT_GT(b.event_count, 0u);
    EXPECT_GE(b.first_time, last_first_time);
    cumulative += b.event_count;
    last_first_time = b.first_time;
  }
  EXPECT_EQ(cumulative, reader->event_count());

  std::vector<Event> block0;
  ASSERT_TRUE(reader->decode_block(0, block0).ok());
  ASSERT_EQ(block0.size(), 256u);
  EXPECT_EQ(event_time(block0.front()), event_time(original.events.front()));
}

TEST(TraceV3, BlockWriterIsByteIdenticalToBulkWriter) {
  const Trace t = synth_trace(5'000, 3);
  const bom::ModuleTable modules = test_modules();
  const std::string bulk_path = tmp_path("v3_bulk.trc");
  const std::string stream_path = tmp_path("v3_stream.trc");
  const std::string bulk = v3_file_bytes(bulk_path, t, modules, 300);

  auto writer =
      TraceBlockWriter::create(stream_path, t.stacks, t.functions, modules, t.sample_rate_hz, 300);
  ASSERT_TRUE(writer.has_value()) << writer.error();
  for (const Event& e : t.events) ASSERT_TRUE(writer->add(e).ok());
  ASSERT_TRUE(writer->finish().ok());
  EXPECT_EQ(writer->events_written(), t.events.size());

  EXPECT_EQ(read_bytes(stream_path), bulk);
}

TEST(TraceV3, BlockWriterRejectsOutOfTableStack) {
  const Trace t = synth_trace(10, 1);
  auto writer = TraceBlockWriter::create(tmp_path("v3_badstack.trc"), t.stacks, t.functions,
                                         test_modules(), t.sample_rate_hz, 16);
  ASSERT_TRUE(writer.has_value()) << writer.error();
  EXPECT_FALSE(writer->add(AllocEvent{1, 1, 0x1000, 64, /*stack=*/999, AllocKind::kMalloc}).ok());
}

/// Walks `reader` with for_each and digests what it visited.
std::uint64_t for_each_digest(const TraceReader& reader) {
  Trace walked;
  walked.sample_rate_hz = reader.sample_rate_hz();
  walked.stacks = reader.stacks();
  walked.functions = reader.functions();
  const Status st = reader.for_each([&walked](const Event& e) { walked.events.push_back(e); });
  EXPECT_TRUE(st.ok()) << st.error();
  return trace_digest(walked, reader.modules());
}

TEST(TraceV3, ForEachVisitsEveryEventInOrder) {
  // 40K events cross for_each's 16K-event chunk boundary inside the
  // single-block file; the 128-event blocks are each one chunk.
  const Trace original = synth_trace(40'000, 11);
  const bom::ModuleTable modules = test_modules();
  const std::uint64_t expected = trace_digest(original, modules);

  const std::string v3_path = tmp_path("for_each_v3.trc");
  const std::string v3_one_path = tmp_path("for_each_v3_one_block.trc");
  v3_file_bytes(v3_path, original, modules, 128);
  v3_file_bytes(v3_one_path, original, modules, 1u << 20);

  for (const std::string& path : {v3_path, v3_one_path}) {
    const auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.has_value()) << path << ": " << reader.error();
    EXPECT_EQ(reader->event_count(), original.events.size()) << path;
    EXPECT_EQ(for_each_digest(*reader), expected) << path;
    // Each call is a fresh pass over the same reader.
    EXPECT_EQ(for_each_digest(*reader), expected) << path << " (second pass)";
  }
}

// ---------------------------------------------------------------------------
// Malformed v3 inputs. Every case must fail with an offset-bearing
// Status through both the mmap reader and the bulk loader, never crash.

struct CorruptionCase {
  std::string bytes;
  std::uint64_t entry_count = 0;
  std::uint64_t footer_offset = 0;
};

CorruptionCase valid_v3(const std::string& name) {
  CorruptionCase c;
  const Trace t = synth_trace(2'000, 21);
  c.bytes = v3_file_bytes(tmp_path(name), t, test_modules(), 128);
  c.entry_count = get_u64(c.bytes, c.bytes.size() - 24);
  c.footer_offset = get_u64(c.bytes, c.bytes.size() - 16);
  EXPECT_GE(c.entry_count, 2u);
  return c;
}

void expect_rejected_with_offset(const std::string& path, const std::string& bytes) {
  write_bytes(path, bytes);
  const auto reader = TraceReader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_NE(reader.error().find("offset"), std::string::npos) << reader.error();
  const auto loaded = load_trace(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("offset"), std::string::npos) << loaded.error();
}

TEST(TraceV3, RejectsTruncatedFooter) {
  CorruptionCase c = valid_v3("v3_trunc_src.trc");
  c.bytes.resize(c.bytes.size() - 10);
  expect_rejected_with_offset(tmp_path("v3_trunc.trc"), c.bytes);
}

TEST(TraceV3, RejectsOutOfRangeBlockOffset) {
  CorruptionCase c = valid_v3("v3_badoff_src.trc");
  // Second index entry: point its block offset past the file end.
  put_u64(c.bytes, c.footer_offset + 24, c.bytes.size() + 4096);
  expect_rejected_with_offset(tmp_path("v3_badoff.trc"), c.bytes);
}

TEST(TraceV3, RejectsEventCountMismatch) {
  CorruptionCase c = valid_v3("v3_badcount_src.trc");
  // First index entry's count field no longer sums to the header total.
  put_u64(c.bytes, c.footer_offset + 8, get_u64(c.bytes, c.footer_offset + 8) + 3);
  expect_rejected_with_offset(tmp_path("v3_badcount.trc"), c.bytes);
}

TEST(TraceV3, RejectsIndexPastEof) {
  CorruptionCase c = valid_v3("v3_pasteof_src.trc");
  // Trailer's footer offset points beyond the end of the file.
  put_u64(c.bytes, c.bytes.size() - 16, c.bytes.size() + 100);
  expect_rejected_with_offset(tmp_path("v3_pasteof.trc"), c.bytes);
}

TEST(TraceV3, RejectsWrappingIndexEntryCount) {
  CorruptionCase c = valid_v3("v3_wrapcount_src.trc");
  // Setting bit 63 of the trailer's entry count leaves count * 24 equal
  // to the real index span modulo 2^64; the count must still be refused
  // before anything is sized by it, by strict and salvage opens alike.
  put_u64(c.bytes, c.bytes.size() - 24, c.entry_count | (1ull << 63));
  const std::string path = tmp_path("v3_wrapcount.trc");
  expect_rejected_with_offset(path, c.bytes);
  TraceOpenOptions salvage;
  salvage.salvage = true;
  const auto reader = TraceReader::open(path, salvage);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_TRUE(reader->manifest().sequential_scan);
}

TEST(TraceV3, RejectsReservedCountBitWithReprofileHint) {
  // Bit 63 of an index count once flagged a bit-packed block body, which
  // no reader decodes. A middle block that sets it must fail the strict
  // open at that block's offset, with the hint to re-profile.
  CorruptionCase c = valid_v3("v3_reserved_src.trc");
  const std::uint64_t middle = c.entry_count / 2;
  const std::size_t entry = c.footer_offset + middle * 24;
  put_u64(c.bytes, entry + 8, get_u64(c.bytes, entry + 8) | (1ull << 63));
  const std::string path = tmp_path("v3_reserved.trc");
  expect_rejected_with_offset(path, c.bytes);
  const auto reader = TraceReader::open(path);
  ASSERT_FALSE(reader.has_value());
  const std::string& error = reader.error();
  EXPECT_EQ(error.rfind("v3 index block " + std::to_string(middle) + " ", 0), 0u) << error;
  EXPECT_NE(error.find("at offset " + std::to_string(get_u64(c.bytes, entry))), std::string::npos)
      << error;
  EXPECT_NE(error.find("re-profile"), std::string::npos) << error;
}

TEST(TraceV3, RejectsTruncationAtEveryPrefix) {
  const CorruptionCase c = valid_v3("v3_prefix_src.trc");
  const std::string path = tmp_path("v3_prefix.trc");
  // A coarse sweep plus the sensitive tail region byte by byte.
  for (std::size_t cut = 0; cut < c.bytes.size();
       cut += (cut + 64 < c.footer_offset ? 997 : 1)) {
    write_bytes(path, c.bytes.substr(0, cut));
    EXPECT_FALSE(TraceReader::open(path).has_value()) << "prefix " << cut;
    EXPECT_FALSE(load_trace(path).has_value()) << "prefix " << cut;
  }
}

// ---------------------------------------------------------------------------
// Default block size. The tests above use blocks of at most 4096 events;
// codec::kDefaultBlockEvents gives full 64K-event blocks, which the
// reader decodes whole. 150k events give two full blocks plus a tail.

TEST(TraceV3, FormatsAgreeAtDefaultBlockSize) {
  const Trace original = synth_trace(150'000, 5);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("default_block_v3.trc");
  v3_file_bytes(path, original, modules, codec::kDefaultBlockEvents);

  const auto reader = TraceReader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  ASSERT_EQ(reader->block_count(), 3u);
  EXPECT_EQ(reader->block(1).event_count, codec::kDefaultBlockEvents);
  const auto bundle = reader->read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  EXPECT_EQ(trace_digest(bundle->trace, bundle->modules), trace_digest(original, modules));
}

// ---------------------------------------------------------------------------
// Streaming memory bound: flat peak RSS however large the trace. Mapped
// file pages count toward the resident set, so this also proves for_each
// hands consumed pages of the mapping back.

/// A `/proc/self/status` field in KiB (0 when absent).
std::size_t proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return static_cast<std::size_t>(std::strtoul(line.c_str() + field.size(), nullptr, 10));
    }
  }
  return 0;
}

struct ResidentRise {
  std::size_t hwm_kb = 0;  ///< VmHWM rise over the walk
  std::size_t rss_kb = 0;  ///< largest VmRSS rise sampled during the walk
};

/// Walks the trace at `path` with for_each, sampling VmRSS inside the
/// callback every 16K events, and reports how far the walk raised the
/// process's resident set.
ResidentRise walk_resident_rise(const std::string& path, std::size_t events) {
  ResidentRise rise;
  const std::size_t hwm_before = proc_status_kb("VmHWM:");
  const std::size_t rss_before = proc_status_kb("VmRSS:");
  std::size_t rss_peak = rss_before;
  {
    const auto reader = TraceReader::open(path);
    EXPECT_TRUE(reader.has_value()) << path << ": " << reader.error();
    if (!reader.has_value()) return rise;
    std::size_t seen = 0;
    const Status st = reader->for_each([&](const Event&) {
      if (++seen % (16 * 1024) == 0) rss_peak = std::max(rss_peak, proc_status_kb("VmRSS:"));
    });
    EXPECT_TRUE(st.ok()) << path << ": " << st.error();
    EXPECT_EQ(seen, events) << path;
    rss_peak = std::max(rss_peak, proc_status_kb("VmRSS:"));
  }
  rise.hwm_kb = proc_status_kb("VmHWM:") - hwm_before;
  rise.rss_kb = rss_peak - rss_before;
  return rise;
}

// The `tsan` test preset excludes this test: ThreadSanitizer's shadow
// memory raises RSS past any bound here, and the walk runs for minutes.
TEST(TraceV3, StreamingKeepsPeakRssFlat) {
  if (proc_status_kb("VmHWM:") == 0) GTEST_SKIP() << "no /proc/self/status VmHWM on this platform";
  constexpr std::size_t kBoundKb = 16u * 1024;

  Trace header_only;
  header_only.sample_rate_hz = 1000.0;
  const StackId s0 = header_only.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const StackId s1 = header_only.stacks.intern(bom::CallStack{{{0, 0x20}, {1, 0x8}}});
  const std::uint32_t fn = header_only.functions.intern("synth");

  // 1.5M events (decoded they would be > 70 MB), generated straight into
  // a block writer, so the event vector is never materialized and the
  // VmHWM rise bounds the walk.
  constexpr std::size_t kEvents = 1'500'000;
  const std::string path = tmp_path("flat_rss_v3.trc");
  {
    auto writer = TraceBlockWriter::create(path, header_only.stacks, header_only.functions,
                                           test_modules(), 1000.0);
    ASSERT_TRUE(writer.has_value()) << writer.error();
    Status status;
    synth_events(kEvents, 5, s0, s1, fn, [&](const Event& e) {
      if (status.ok()) status = writer->add(e);
    });
    ASSERT_TRUE(status.ok()) << status.error();
    ASSERT_TRUE(writer->finish().ok());
  }
  const ResidentRise rise = walk_resident_rise(path, kEvents);
  EXPECT_LE(rise.hwm_kb, kBoundKb) << "streaming raised peak RSS by " << rise.hwm_kb << " KiB";
  EXPECT_LE(rise.rss_kb, kBoundKb) << "streaming raised RSS by " << rise.rss_kb << " KiB";
}

}  // namespace
}  // namespace ecohmem::trace
