// Tests for the v3 indexed trace format: round trips (bulk writer and
// streaming block writer), the mmap TraceReader's block API and parallel
// read_all, the bounded-memory for_each walk, and malformed-index
// rejection — every corruption must fail with an offset-bearing Status,
// never crash.

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

/// Canonical byte form used for exact equality checks: the v1 plain
/// encoding is injective over (header tables, events), so two traces are
/// identical iff their v1 bytes are.
std::string v1_bytes(const Trace& t, const bom::ModuleTable& modules) {
  std::stringstream ss;
  EXPECT_TRUE(write_trace(ss, t, modules).ok());
  return ss.str();
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
  opt.indexed = true;
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
  EXPECT_EQ(v1_bytes(loaded->trace, loaded->modules), v1_bytes(original, modules));
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
  const std::string expected = v1_bytes(original, modules);

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
    EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), expected);
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
  EXPECT_TRUE(reader->indexed());
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

TEST(TraceV3, ReadAllIsBitIdenticalForEveryThreadCount) {
  const Trace original = synth_trace(20'000, 99);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("v3_threads.trc");
  v3_file_bytes(path, original, modules, 512);

  const auto reader = TraceReader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const std::string expected = v1_bytes(original, modules);
  for (const int threads : {1, 2, 4, 7}) {
    const auto bundle = reader->read_all(threads);
    ASSERT_TRUE(bundle.has_value()) << "threads=" << threads << ": " << bundle.error();
    EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), expected) << "threads=" << threads;
  }
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

TEST(TraceV3, V1ToV3PropertyRoundTrip) {
  // Property: for any trace, v1 -> decode -> v3 -> decode preserves the
  // canonical bytes exactly.
  const bom::ModuleTable modules = test_modules();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Trace original = synth_trace(777 + 111 * seed, seed);
    std::stringstream v1;
    ASSERT_TRUE(write_trace(v1, original, modules).ok());
    const auto from_v1 = read_trace(v1);
    ASSERT_TRUE(from_v1.has_value()) << from_v1.error();

    const std::string path = tmp_path("v3_prop_" + std::to_string(seed) + ".trc");
    v3_file_bytes(path, from_v1->trace, from_v1->modules, 128);
    const auto from_v3 = load_trace(path);
    ASSERT_TRUE(from_v3.has_value()) << from_v3.error();
    EXPECT_EQ(v1_bytes(from_v3->trace, from_v3->modules), v1_bytes(original, modules))
        << "seed " << seed;
  }
}

/// Walks `reader` with for_each and re-encodes the events in the
/// canonical v1 form.
std::string for_each_v1_bytes(const TraceReader& reader) {
  Trace walked;
  walked.sample_rate_hz = reader.sample_rate_hz();
  walked.stacks = reader.stacks();
  walked.functions = reader.functions();
  const Status st = reader.for_each([&walked](const Event& e) { walked.events.push_back(e); });
  EXPECT_TRUE(st.ok()) << st.error();
  return v1_bytes(walked, reader.modules());
}

TEST(TraceV3, ForEachVisitsEveryEventInOrder) {
  // 40K events cross for_each's 16K-event chunk boundary inside the v1/v2
  // virtual block and inside the single-block v3 file.
  const Trace original = synth_trace(40'000, 11);
  const bom::ModuleTable modules = test_modules();
  const std::string expected = v1_bytes(original, modules);

  TraceWriteOptions v2;
  v2.compact = true;
  const std::string v1_path = tmp_path("for_each_v1.trc");
  const std::string v2_path = tmp_path("for_each_v2.trc");
  const std::string v3_path = tmp_path("for_each_v3.trc");
  const std::string v3_one_path = tmp_path("for_each_v3_one_block.trc");
  ASSERT_TRUE(save_trace(v1_path, original, modules).ok());
  ASSERT_TRUE(save_trace(v2_path, original, modules, v2).ok());
  v3_file_bytes(v3_path, original, modules, 128);
  v3_file_bytes(v3_one_path, original, modules, 1u << 20);

  for (const std::string& path : {v1_path, v2_path, v3_path, v3_one_path}) {
    const auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.has_value()) << path << ": " << reader.error();
    EXPECT_EQ(reader->event_count(), original.events.size()) << path;
    EXPECT_EQ(for_each_v1_bytes(*reader), expected) << path;
    // Each call is a fresh pass over the same reader.
    EXPECT_EQ(for_each_v1_bytes(*reader), expected) << path << " (second pass)";
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
// Compressed blocks (v3 + per-block kBlockCompressedFlag). Decoded data
// must be bit-identical to the uncompressed file through every consumer,
// and the uncompressed writer's bytes must not change at all.

std::string v3c_file_bytes(const std::string& path, const Trace& t,
                           const bom::ModuleTable& modules, std::uint64_t block_events) {
  TraceWriteOptions opt;
  opt.indexed = true;
  opt.block_events = block_events;
  opt.compress = true;
  EXPECT_TRUE(save_trace(path, t, modules, opt).ok());
  return read_bytes(path);
}

TEST(TraceV3Compressed, RoundTripIsBitIdenticalToUncompressed) {
  const Trace original = synth_trace(10'000, 42);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("v3c_roundtrip.trc");
  const std::string bytes = v3c_file_bytes(path, original, modules, 256);

  // Every index entry of an all-compressed file carries the flag bit and
  // a masked count that still sums to the header total.
  const std::uint64_t entry_count = get_u64(bytes, bytes.size() - 24);
  const std::uint64_t footer_offset = get_u64(bytes, bytes.size() - 16);
  ASSERT_GE(entry_count, 2u);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const std::uint64_t raw = get_u64(bytes, footer_offset + i * 24 + 8);
    EXPECT_NE(raw & codec::kBlockCompressedFlag, 0u) << "entry " << i;
    total += raw & codec::kBlockCountMask;
  }
  EXPECT_EQ(total, original.events.size());

  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(v1_bytes(loaded->trace, loaded->modules), v1_bytes(original, modules));
}

TEST(TraceV3Compressed, CompressedFileIsSmaller) {
  const Trace t = synth_trace(20'000, 17);
  const std::string plain = v3_file_bytes(tmp_path("v3c_size_u.trc"), t, test_modules(), 4096);
  const std::string packed = v3c_file_bytes(tmp_path("v3c_size_c.trc"), t, test_modules(), 4096);
  EXPECT_LT(packed.size(), plain.size());
}

TEST(TraceV3Compressed, UncompressedWriterBytesAreUnchangedByTheOption) {
  // compress=false must be byte-for-byte the PR-4 v3 format: the option
  // defaulting off cannot perturb existing files.
  const Trace t = synth_trace(5'000, 3);
  TraceWriteOptions off;
  off.indexed = true;
  off.block_events = 300;
  off.compress = false;
  const std::string path = tmp_path("v3c_off.trc");
  ASSERT_TRUE(save_trace(path, t, test_modules(), off).ok());
  EXPECT_EQ(read_bytes(path), v3_file_bytes(tmp_path("v3c_off_ref.trc"), t, test_modules(), 300));
}

TEST(TraceV3Compressed, ReaderDecodesBlocksAndAllThreadCounts) {
  const Trace original = synth_trace(20'000, 99);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("v3c_threads.trc");
  v3c_file_bytes(path, original, modules, 512);

  const auto reader = TraceReader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_EQ(reader->event_count(), original.events.size());

  std::vector<Event> block0;
  ASSERT_TRUE(reader->decode_block(0, block0).ok());
  ASSERT_EQ(block0.size(), 512u);
  EXPECT_EQ(event_time(block0.front()), event_time(original.events.front()));

  const std::string expected = v1_bytes(original, modules);
  for (const int threads : {1, 2, 4, 7}) {
    const auto bundle = reader->read_all(threads);
    ASSERT_TRUE(bundle.has_value()) << "threads=" << threads << ": " << bundle.error();
    EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), expected) << "threads=" << threads;
  }
}

TEST(TraceV3Compressed, BlockWriterIsByteIdenticalToBulkWriter) {
  const Trace t = synth_trace(5'000, 3);
  const bom::ModuleTable modules = test_modules();
  const std::string bulk = v3c_file_bytes(tmp_path("v3c_bulk.trc"), t, modules, 300);

  const std::string stream_path = tmp_path("v3c_stream.trc");
  auto writer = TraceBlockWriter::create(stream_path, t.stacks, t.functions, modules,
                                         t.sample_rate_hz, 300, /*compress=*/true);
  ASSERT_TRUE(writer.has_value()) << writer.error();
  for (const Event& e : t.events) ASSERT_TRUE(writer->add(e).ok());
  ASSERT_TRUE(writer->finish().ok());
  EXPECT_EQ(read_bytes(stream_path), bulk);
}

TEST(TraceV3Compressed, ForEachVisitsEveryEventInOrder) {
  const Trace original = synth_trace(4'000, 11);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("v3c_for_each.trc");
  v3c_file_bytes(path, original, modules, 128);

  const auto reader = TraceReader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_EQ(for_each_v1_bytes(*reader), v1_bytes(original, modules));
}

TEST(TraceV3Compressed, RejectsCompressOnNonIndexedFormats) {
  const Trace t = synth_trace(100, 1);
  for (const bool compact : {false, true}) {
    TraceWriteOptions opt;
    opt.compact = compact;
    opt.compress = true;
    std::stringstream ss;
    const Status st = write_trace(ss, t, test_modules(), opt);
    ASSERT_FALSE(st.ok()) << (compact ? "v2" : "v1");
    EXPECT_NE(st.error().find("v3"), std::string::npos) << st.error();
  }
}

TEST(TraceV3Compressed, RejectsBodyCountDisagreeingWithIndex) {
  const Trace t = synth_trace(2'000, 21);
  const std::string path = tmp_path("v3c_badbody_src.trc");
  std::string bytes = v3c_file_bytes(path, t, test_modules(), 128);
  const std::uint64_t footer_offset = get_u64(bytes, bytes.size() - 16);
  // Mutate the first block body's own declared count (varint at offset
  // events_offset+2, value 128 = 2-byte varint whose low byte we bump).
  const std::uint64_t block0 = get_u64(bytes, footer_offset);
  ASSERT_EQ(static_cast<unsigned char>(bytes[block0]), codec::kCompressedBlockMagic);
  bytes[block0 + 2] = static_cast<char>(bytes[block0 + 2] ^ 0x01);
  const std::string bad_path = tmp_path("v3c_badbody.trc");
  write_bytes(bad_path, bytes);
  // The index itself is intact, so open succeeds; the disagreement is
  // caught when the block body is decoded — by the block API, the bulk
  // loader and for_each alike, always with an offset and the same text.
  const auto reader = TraceReader::open(bad_path);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  std::vector<Event> block0_events;
  const Status st = reader->decode_block(0, block0_events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().find("offset"), std::string::npos) << st.error();
  const auto loaded = load_trace(bad_path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("offset"), std::string::npos) << loaded.error();
  const Status walked = reader->for_each([](const Event&) {});
  ASSERT_FALSE(walked.ok());
  EXPECT_EQ(walked.error(), st.error());
}

TEST(TraceV3Compressed, RejectsTruncationAtEveryPrefix) {
  const Trace t = synth_trace(2'000, 21);
  std::string bytes = v3c_file_bytes(tmp_path("v3c_prefix_src.trc"), t, test_modules(), 128);
  const std::uint64_t footer_offset = get_u64(bytes, bytes.size() - 16);
  const std::string path = tmp_path("v3c_prefix.trc");
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut + 64 < footer_offset ? 499 : 1)) {
    write_bytes(path, bytes.substr(0, cut));
    EXPECT_FALSE(TraceReader::open(path).has_value()) << "prefix " << cut;
    EXPECT_FALSE(load_trace(path).has_value()) << "prefix " << cut;
  }
}

// ---------------------------------------------------------------------------
// Default block size. The tests above use blocks of at most 4096 events;
// codec::kDefaultBlockEvents gives full 64K-event blocks, which the
// reader decodes whole. 150k events give two full blocks plus a tail,
// and v2, v3 and compressed v3 must all decode to the same v1 bytes at
// every thread count.

TEST(TraceV3, FormatsAgreeAtDefaultBlockSize) {
  const Trace original = synth_trace(150'000, 5);
  const bom::ModuleTable modules = test_modules();
  const std::string expected = v1_bytes(original, modules);

  TraceWriteOptions v2;
  v2.compact = true;
  const std::string v2_path = tmp_path("default_block_v2.trc");
  ASSERT_TRUE(save_trace(v2_path, original, modules, v2).ok());
  const std::string v3_path = tmp_path("default_block_v3.trc");
  v3_file_bytes(v3_path, original, modules, codec::kDefaultBlockEvents);
  const std::string v3c_path = tmp_path("default_block_v3c.trc");
  v3c_file_bytes(v3c_path, original, modules, codec::kDefaultBlockEvents);

  for (const std::string& path : {v2_path, v3_path, v3c_path}) {
    const auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.has_value()) << path << ": " << reader.error();
    if (reader->indexed()) {
      ASSERT_EQ(reader->block_count(), 3u) << path;
      EXPECT_EQ(reader->block(1).event_count, codec::kDefaultBlockEvents) << path;
    }
    for (const int threads : {1, 4}) {
      const auto bundle = reader->read_all(threads);
      ASSERT_TRUE(bundle.has_value()) << path << " threads=" << threads << ": " << bundle.error();
      EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), expected)
          << path << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming memory bound: flat peak RSS however large the trace, in every
// encoding. Mapped file pages count toward the resident set, so this also
// proves for_each hands consumed pages of the mapping back.

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

// AddressSanitizer keeps freed memory resident in its quarantine, so an
// instrumented walk's resident set counts every buffer it ever freed.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

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

  // 1.5M events (decoded they would be > 70 MB). v3 and compressed v3 are
  // generated straight into two block writers, so neither side ever
  // materializes the event vector and the VmHWM rise bounds the walk.
  constexpr std::size_t kEvents = 1'500'000;
  const std::string v3_path = tmp_path("flat_rss_v3.trc");
  const std::string v3c_path = tmp_path("flat_rss_v3c.trc");
  {
    auto v3 = TraceBlockWriter::create(v3_path, header_only.stacks, header_only.functions,
                                       test_modules(), 1000.0);
    auto v3c = TraceBlockWriter::create(v3c_path, header_only.stacks, header_only.functions,
                                        test_modules(), 1000.0, codec::kDefaultBlockEvents,
                                        /*compress=*/true);
    ASSERT_TRUE(v3.has_value()) << v3.error();
    ASSERT_TRUE(v3c.has_value()) << v3c.error();
    Status status;
    synth_events(kEvents, 5, s0, s1, fn, [&](const Event& e) {
      if (status.ok()) status = v3->add(e);
      if (status.ok()) status = v3c->add(e);
    });
    ASSERT_TRUE(status.ok()) << status.error();
    ASSERT_TRUE(v3->finish().ok());
    ASSERT_TRUE(v3c->finish().ok());
  }
  for (const std::string& path : {v3_path, v3c_path}) {
    const ResidentRise rise = walk_resident_rise(path, kEvents);
    // The compressed decoder allocates its column scratch per block; the
    // uninstrumented allocator reuses it, ASan's quarantine holds all 23
    // blocks' worth, so under ASan only the walk itself is checked here.
    if (path == v3c_path && kAddressSanitizer) continue;
    EXPECT_LE(rise.hwm_kb, kBoundKb) << path << ": streaming raised peak RSS by " << rise.hwm_kb
                                     << " KiB";
    EXPECT_LE(rise.rss_kb, kBoundKb) << path << ": streaming raised RSS by " << rise.rss_kb
                                     << " KiB";
  }

  // v1 and v2 can only be written from a materialized trace, which raises
  // VmHWM before the walk starts and could hide a regression there; the
  // VmRSS samples taken inside the callback bound these walks instead.
  const std::string v1_path = tmp_path("flat_rss_v1.trc");
  const std::string v2_path = tmp_path("flat_rss_v2.trc");
  {
    Trace t = header_only;
    t.events.reserve(kEvents);
    synth_events(kEvents, 5, s0, s1, fn, [&t](const Event& e) { t.events.push_back(e); });
    TraceWriteOptions v2;
    v2.compact = true;
    ASSERT_TRUE(save_trace(v1_path, t, test_modules()).ok());
    ASSERT_TRUE(save_trace(v2_path, t, test_modules(), v2).ok());
  }
  for (const std::string& path : {v1_path, v2_path}) {
    const ResidentRise rise = walk_resident_rise(path, kEvents);
    EXPECT_LE(rise.rss_kb, kBoundKb) << path << ": streaming raised RSS by " << rise.rss_kb
                                     << " KiB";
  }
}

}  // namespace
}  // namespace ecohmem::trace
