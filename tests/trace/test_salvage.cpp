// Salvage-mode trace recovery and the deterministic corruption sweep.
//
// The sweep (SalvageSweep) drives faultinject::schedule over a v3 trace
// and asserts the fail-soft contract for every injected fault:
//   - salvage readers return without crashing,
//   - the manifest accounts for every byte (bytes_conserved) and — when
//     the index was usable — every declared event (recovered + dropped
//     == declared),
//   - parallel read_all is bit-identical to serial,
//   - for_each streams exactly the events read_all materializes,
//   - strict reads of the same corrupt input still fail loudly.
//
// The targeted tests cover truncation mid-chunk (v1/v2) and mid-block
// (v3), and failing-istream (badbit mid-read, not EOF) through the
// slurp path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ecohmem/common/faultinject.hpp"
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

/// Deterministic event generator (same recipe as test_trace_v3).
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

/// Canonical byte form for exact event-stream equality (the v1 plain
/// encoding is injective over header tables + events).
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

std::string v3_file_bytes(const std::string& path, const Trace& t,
                          const bom::ModuleTable& modules, std::uint64_t block_events,
                          bool compress = false) {
  TraceWriteOptions opt;
  opt.indexed = true;
  opt.block_events = block_events;
  opt.compress = compress;
  EXPECT_TRUE(save_trace(path, t, modules, opt).ok());
  return read_bytes(path);
}

std::vector<unsigned char> to_vec(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string to_str(const std::vector<unsigned char>& v) {
  return {v.begin(), v.end()};
}

/// Absolute offset of the first event byte (where the header ends).
std::uint64_t events_offset_of(const std::string& bytes) {
  codec::ByteReader br(reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(), 0);
  const auto h = codec::decode_header(br);
  EXPECT_TRUE(h.has_value()) << h.error();
  return h->events_offset;
}

TraceOpenOptions salvage_opts() {
  TraceOpenOptions o;
  o.salvage = true;
  return o;
}

/// Streams every event out of `reader` with for_each and re-encodes the
/// result in the canonical v1 form for equality checks.
Expected<std::string> for_each_v1_bytes(const TraceReader& reader) {
  Trace t;
  t.sample_rate_hz = reader.sample_rate_hz();
  t.stacks = reader.stacks();
  t.functions = reader.functions();
  if (const auto st = reader.for_each([&t](const Event& e) { t.events.push_back(e); });
      !st.ok()) {
    return unexpected(st.error());
  }
  return v1_bytes(t, reader.modules());
}

/// for_each over a salvage-mode reader yields exactly what read_all does.
void expect_for_each_matches_read_all(const TraceReader& reader) {
  const auto bundle = reader.read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  const auto streamed = for_each_v1_bytes(reader);
  ASSERT_TRUE(streamed.has_value()) << streamed.error();
  EXPECT_EQ(*streamed, v1_bytes(bundle->trace, bundle->modules));
}

// --------------------------------------------------------------------------
// Targeted salvage behavior.

TEST(SalvageReader, CleanTraceSalvageMatchesStrictRead) {
  const Trace original = synth_trace(5'000, 11);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_clean.trc");
  v3_file_bytes(path, original, modules, 256);

  auto strict = TraceReader::open(path);
  ASSERT_TRUE(strict.has_value()) << strict.error();
  EXPECT_FALSE(strict->manifest().salvaged);

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const SalvageManifest& m = reader->manifest();
  EXPECT_TRUE(m.salvaged);
  EXPECT_TRUE(m.index_usable);
  EXPECT_FALSE(m.sequential_scan);
  EXPECT_EQ(m.blocks_dropped, 0u);
  EXPECT_EQ(m.events_declared, original.events.size());
  EXPECT_EQ(m.events_recovered, original.events.size());
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_TRUE(m.bytes_conserved());
  EXPECT_NE(m.summary().find("salvage: kept"), std::string::npos);

  const auto bundle = reader->read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), v1_bytes(original, modules));
  EXPECT_TRUE(bundle->coverage.salvaged);
  EXPECT_EQ(bundle->coverage.events_seen, original.events.size());
  EXPECT_EQ(bundle->coverage.events_declared, original.events.size());
  EXPECT_DOUBLE_EQ(bundle->coverage.fraction(), 1.0);
}

TEST(SalvageReader, CorruptedBlockDropsExactlyThatBlock) {
  const std::size_t kEvents = 4'096;
  const std::uint64_t kBlock = 256;
  const Trace original = synth_trace(kEvents, 23);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_oneblock.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, kBlock);

  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  ASSERT_EQ(lm.block_offsets.size(), kEvents / kBlock);

  // Garble the interior of block 5's body.
  faultinject::Fault f;
  f.kind = faultinject::FaultKind::kGarble;
  f.offset = (lm.block_offsets[5] + lm.block_offsets[6]) / 2;
  f.length = 16;
  f.seed = 99;
  write_bytes(path, to_str(faultinject::apply(to_vec(bytes), f)));

  // Strict open validates only the index structure; the body damage must
  // surface as an offset-bearing error when the events are decoded.
  const auto strict = TraceReader::open(path);
  ASSERT_TRUE(strict.has_value()) << strict.error();
  const auto strict_read = strict->read_all();
  ASSERT_FALSE(strict_read.has_value());
  EXPECT_NE(strict_read.error().find("offset"), std::string::npos) << strict_read.error();

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const SalvageManifest& m = reader->manifest();
  EXPECT_TRUE(m.index_usable);
  EXPECT_EQ(m.blocks_declared, kEvents / kBlock);
  EXPECT_EQ(m.blocks_dropped, 1u);
  ASSERT_EQ(m.losses.size(), 1u);
  EXPECT_EQ(m.losses[0].block, 5u);
  EXPECT_EQ(m.losses[0].events_declared, kBlock);
  EXPECT_GE(m.losses[0].first_error_offset, lm.block_offsets[5]);
  EXPECT_LT(m.losses[0].first_error_offset, lm.block_offsets[6]);
  EXPECT_FALSE(m.losses[0].reason.empty());
  EXPECT_EQ(m.events_recovered, kEvents - kBlock);
  EXPECT_EQ(m.events_recovered + m.events_dropped, m.events_declared);
  EXPECT_TRUE(m.bytes_conserved());

  // The recovered stream is exactly the original minus block 5's slice.
  Trace expected;
  expected.sample_rate_hz = original.sample_rate_hz;
  expected.stacks = original.stacks;
  expected.functions = original.functions;
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i / kBlock != 5) expected.events.push_back(original.events[i]);
  }
  const auto bundle = reader->read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), v1_bytes(expected, modules));
  EXPECT_EQ(bundle->coverage.events_seen, kEvents - kBlock);
  EXPECT_EQ(bundle->coverage.events_declared, kEvents);
}

TEST(SalvageReader, TruncatedTrailerFallsBackToSequentialScan) {
  // Single block, so the sequential scan sees the same delta base the
  // writer used and the recovered events are bit-identical.
  const Trace original = synth_trace(3'000, 31);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_trailer.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, 1u << 20);

  write_bytes(path, bytes.substr(0, bytes.size() - 10));  // destroy the trailer

  const auto strict = TraceReader::open(path);
  ASSERT_FALSE(strict.has_value());
  EXPECT_NE(strict.error().find("offset"), std::string::npos) << strict.error();

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const SalvageManifest& m = reader->manifest();
  EXPECT_FALSE(m.index_usable);
  EXPECT_TRUE(m.sequential_scan);
  EXPECT_EQ(m.events_recovered, original.events.size());
  EXPECT_GT(m.dropped_bytes, 0u);  // the orphaned footer remnant
  EXPECT_TRUE(m.bytes_conserved());

  const auto bundle = reader->read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), v1_bytes(original, modules));
}

TEST(SalvageReader, TruncatedMidBlockRecoversPrefix) {
  const std::size_t kEvents = 4'096;
  const std::uint64_t kBlock = 256;
  const Trace original = synth_trace(kEvents, 47);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_midblock.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, kBlock);

  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  write_bytes(path, bytes.substr(0, lm.block_offsets[3] + 10));  // mid block 3

  const auto strict = TraceReader::open(path);
  ASSERT_FALSE(strict.has_value());
  EXPECT_NE(strict.error().find("offset"), std::string::npos) << strict.error();

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const SalvageManifest& m = reader->manifest();
  EXPECT_TRUE(m.sequential_scan);
  EXPECT_GE(m.events_recovered, 3 * kBlock);  // everything before the cut
  EXPECT_LT(m.events_recovered, kEvents);
  EXPECT_GT(m.events_dropped, 0u);
  EXPECT_LT(m.coverage(), 1.0);
  EXPECT_TRUE(m.bytes_conserved());
  const auto bundle = reader->read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  EXPECT_EQ(bundle->trace.events.size(), m.events_recovered);
  expect_for_each_matches_read_all(*reader);
}

TEST(SalvageReader, CorruptHeaderStillFails) {
  const Trace original = synth_trace(500, 3);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_header.trc");
  std::string bytes = v3_file_bytes(path, original, modules, 256);

  bytes[3] ^= 0x40;  // break the magic: nothing is recoverable
  write_bytes(path, bytes);

  const auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_FALSE(reader.has_value());
  EXPECT_FALSE(reader.error().empty());
}

TEST(SalvageReader, ParallelSalvageReadMatchesSerial) {
  const Trace original = synth_trace(8'000, 59);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_parallel.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, 512);

  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  faultinject::Fault f;
  f.kind = faultinject::FaultKind::kBitFlip;
  f.offset = lm.block_offsets[2] + 3;
  f.bit = 5;
  write_bytes(path, to_str(faultinject::apply(to_vec(bytes), f)));

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const auto serial = reader->read_all(1);
  ASSERT_TRUE(serial.has_value()) << serial.error();
  for (const int threads : {2, 4, 8}) {
    const auto parallel = reader->read_all(threads);
    ASSERT_TRUE(parallel.has_value()) << parallel.error();
    EXPECT_EQ(v1_bytes(parallel->trace, parallel->modules),
              v1_bytes(serial->trace, serial->modules))
        << "threads=" << threads;
  }
}

// --------------------------------------------------------------------------
// for_each over salvaged and truncated traces.

TEST(SalvageReader, ForEachMatchesReadAllOnDamagedTrace) {
  const Trace original = synth_trace(6'000, 67);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_parity.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, 512);

  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  faultinject::Fault f;
  f.kind = faultinject::FaultKind::kGarble;
  f.offset = lm.block_offsets[7] + 1;
  f.length = 8;
  f.seed = 5;
  write_bytes(path, to_str(faultinject::apply(to_vec(bytes), f)));

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_EQ(reader->manifest().blocks_dropped, 1u);
  expect_for_each_matches_read_all(*reader);
}

TEST(SalvageReader, TruncatedMidChunkV1AndV2) {
  const Trace original = synth_trace(3'000, 71);
  const bom::ModuleTable modules = test_modules();
  for (const bool compact : {false, true}) {
    TraceWriteOptions opt;
    opt.compact = compact;
    std::stringstream ss;
    ASSERT_TRUE(write_trace(ss, original, modules, opt).ok());
    const std::string bytes = ss.str();
    const std::string path =
        tmp_path(compact ? "salv_trunc_v2.trc" : "salv_trunc_v1.trc");
    // Cut deep inside the event section, far past the header.
    write_bytes(path, bytes.substr(0, bytes.size() - bytes.size() / 3));

    // Strict reader: open sees a valid header; the walk must fail with
    // an offset-bearing error, not stop silently at the cut.
    auto strict = TraceReader::open(path);
    ASSERT_TRUE(strict.has_value()) << strict.error();
    const Status walked = strict->for_each([](const Event&) {});
    ASSERT_FALSE(walked.ok());
    EXPECT_NE(walked.error().find("offset"), std::string::npos) << walked.error();

    // Salvage reader: the decodable prefix comes back and the manifest
    // charges the rest.
    auto reader = TraceReader::open(path, salvage_opts());
    ASSERT_TRUE(reader.has_value()) << reader.error();
    const SalvageManifest& m = reader->manifest();
    EXPECT_TRUE(m.sequential_scan);
    EXPECT_GT(m.events_recovered, 0u);
    EXPECT_LT(m.events_recovered, original.events.size());
    EXPECT_TRUE(m.bytes_conserved());
    expect_for_each_matches_read_all(*reader);
  }
}

// --------------------------------------------------------------------------
// Failing-istream satellites: badbit mid-read is an error, never EOF.

TEST(SalvageStreamFaults, FromStreamReportsDeviceErrorNotEof) {
  const Trace original = synth_trace(2'000, 13);
  const bom::ModuleTable modules = test_modules();
  TraceWriteOptions opt;
  opt.compact = true;
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, original, modules, opt).ok());
  const std::string bytes = ss.str();

  faultinject::FailingStream failing(bytes, bytes.size() / 2);
  const auto reader = TraceReader::from_stream(failing);
  ASSERT_FALSE(reader.has_value());
  EXPECT_NE(reader.error().find("stream read error"), std::string::npos) << reader.error();

  // fail_at past the end never fires: the whole trace reads cleanly.
  faultinject::FailingStream healthy(bytes, bytes.size() + 1);
  const auto ok = TraceReader::from_stream(healthy);
  ASSERT_TRUE(ok.has_value()) << ok.error();
  EXPECT_EQ(ok->event_count(), original.events.size());
}

TEST(SalvageStreamFaults, ReadTraceReportsDeviceErrorNotEof) {
  const Trace original = synth_trace(2'000, 17);
  const bom::ModuleTable modules = test_modules();
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, original, modules).ok());
  const std::string bytes = ss.str();

  faultinject::FailingStream failing(bytes, bytes.size() - 64);
  const auto bundle = read_trace(failing);
  ASSERT_FALSE(bundle.has_value());
  EXPECT_NE(bundle.error().find("stream read error"), std::string::npos) << bundle.error();
}

// --------------------------------------------------------------------------
// Fault-injection harness properties.

TEST(SalvageFaultInject, ScheduleIsDeterministicAndSeedSensitive) {
  const Trace original = synth_trace(4'000, 29);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_sched.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, 512);
  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  ASSERT_GT(lm.trailer_offset, 0u);
  ASSERT_FALSE(lm.block_offsets.empty());

  const auto a = faultinject::schedule(lm, 1234, 32);
  const auto b = faultinject::schedule(lm, 1234, 32);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  bool differs_from_other_seed = false;
  const auto c = faultinject::schedule(lm, 1235, 32);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << i;
    EXPECT_EQ(a[i].bit, b[i].bit) << i;
    EXPECT_EQ(a[i].length, b[i].length) << i;
    EXPECT_EQ(a[i].label, b[i].label) << i;
    EXPECT_LT(a[i].offset, lm.file_size) << i;
    differs_from_other_seed =
        differs_from_other_seed || a[i].offset != c[i].offset || a[i].kind != c[i].kind;
  }
  EXPECT_TRUE(differs_from_other_seed);
}

TEST(SalvageFaultInject, LandmarksRejectAWrappingEntryCount) {
  // 1 | 1 << 63 entries of 24 bytes wrap to 24 bytes, exactly the span
  // between this footer offset and the trailer.
  std::vector<unsigned char> bytes(64, 0);
  const std::uint64_t entry_count = 1 | (std::uint64_t{1} << 63);
  const std::uint64_t footer_offset = 16;
  std::memcpy(bytes.data() + 40, &entry_count, 8);
  std::memcpy(bytes.data() + 48, &footer_offset, 8);
  std::memcpy(bytes.data() + 56, "ECOHMIDX", 8);

  faultinject::Landmarks lm;
  EXPECT_NO_THROW(lm = faultinject::landmarks_v3(bytes, 0));
  EXPECT_EQ(lm.file_size, 64u);
  EXPECT_EQ(lm.footer_offset, 0u);
  EXPECT_TRUE(lm.block_offsets.empty());
}

TEST(SalvageFaultInject, ApplySemantics) {
  const std::vector<unsigned char> bytes{0, 1, 2, 3, 4, 5, 6, 7};

  faultinject::Fault flip;
  flip.kind = faultinject::FaultKind::kBitFlip;
  flip.offset = 3;
  flip.bit = 2;
  auto flipped = faultinject::apply(bytes, flip);
  ASSERT_EQ(flipped.size(), bytes.size());
  EXPECT_EQ(flipped[3], bytes[3] ^ 4u);
  flipped[3] = bytes[3];
  EXPECT_EQ(flipped, bytes);  // exactly one byte changed

  faultinject::Fault cut;
  cut.kind = faultinject::FaultKind::kTruncate;
  cut.offset = 5;
  EXPECT_EQ(faultinject::apply(bytes, cut).size(), 5u);

  faultinject::Fault garble;
  garble.kind = faultinject::FaultKind::kGarble;
  garble.offset = 6;
  garble.length = 100;  // clamped to the end
  garble.seed = 7;
  EXPECT_EQ(faultinject::apply(bytes, garble).size(), bytes.size());

  faultinject::Fault past;
  past.kind = faultinject::FaultKind::kBitFlip;
  past.offset = 100;  // past-the-end faults are no-ops
  EXPECT_EQ(faultinject::apply(bytes, past), bytes);
}

// --------------------------------------------------------------------------
// The corruption sweep: the fail-soft contract under every scheduled
// fault. Deterministic — a failure names its seed and fault label.

void run_fault_sweep(const std::string& bytes, const std::string& path) {
  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  ASSERT_FALSE(lm.block_offsets.empty());
  for (const std::uint64_t seed : {2026ull, 806ull}) {
    for (const auto& fault : faultinject::schedule(lm, seed, 24)) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " fault=" + fault.label +
                   " offset=" + std::to_string(fault.offset));
      write_bytes(path, to_str(faultinject::apply(to_vec(bytes), fault)));

      // Strict readers may reject or (for benign payload flips) accept,
      // but must never crash and never fail without a message.
      if (const auto strict = TraceReader::open(path); !strict.has_value()) {
        EXPECT_FALSE(strict.error().empty());
      }

      auto reader = TraceReader::open(path, salvage_opts());
      if (!reader.has_value()) {
        // Only header damage is allowed to defeat salvage entirely.
        EXPECT_FALSE(reader.error().empty());
        continue;
      }
      const SalvageManifest& m = reader->manifest();
      EXPECT_TRUE(m.salvaged);
      EXPECT_TRUE(m.bytes_conserved())
          << "header=" << m.header_bytes << " kept=" << m.kept_bytes
          << " dropped=" << m.dropped_bytes << " index=" << m.index_bytes
          << " file=" << m.file_bytes;
      if (m.index_usable) {
        EXPECT_EQ(m.events_recovered + m.events_dropped, m.events_declared);
        EXPECT_EQ(m.blocks_kept + m.blocks_dropped, m.blocks_declared);
      }
      for (const auto& loss : m.losses) {
        EXPECT_FALSE(loss.reason.empty());
      }

      const auto serial = reader->read_all(1);
      ASSERT_TRUE(serial.has_value()) << serial.error();
      EXPECT_EQ(serial->trace.events.size(), m.events_recovered);
      const auto parallel = reader->read_all(4);
      ASSERT_TRUE(parallel.has_value()) << parallel.error();
      EXPECT_EQ(v1_bytes(parallel->trace, parallel->modules),
                v1_bytes(serial->trace, serial->modules));

      const auto streamed = for_each_v1_bytes(*reader);
      ASSERT_TRUE(streamed.has_value()) << streamed.error();
      EXPECT_EQ(*streamed, v1_bytes(serial->trace, serial->modules));
    }
  }
}

TEST(SalvageSweep, EveryInjectedFaultIsContainedAndAccounted) {
  const Trace original = synth_trace(6'000, 101);
  const std::string bytes =
      v3_file_bytes(tmp_path("salv_sweep_base.trc"), original, test_modules(), 512);
  run_fault_sweep(bytes, tmp_path("salv_sweep.trc"));
}

TEST(SalvageSweep, CompressedBlocksHonorTheSameContract) {
  // The same fault schedule over the same trace written with per-block
  // compression: a damaged compressed block is all-or-nothing (trial
  // decode either yields the whole block or drops it), but the fail-soft
  // accounting and for_each/read_all parity must be identical in form.
  const Trace original = synth_trace(6'000, 101);
  const std::string bytes = v3_file_bytes(tmp_path("salv_sweepc_base.trc"), original,
                                          test_modules(), 512, /*compress=*/true);
  run_fault_sweep(bytes, tmp_path("salv_sweepc.trc"));
}

// --------------------------------------------------------------------------
// Targeted compressed-block salvage behavior.

TEST(SalvageReader, CompressedCorruptedBlockDropsExactlyThatBlock) {
  const std::size_t kEvents = 4'096;
  const std::uint64_t kBlock = 256;
  const Trace original = synth_trace(kEvents, 23);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_c_oneblock.trc");
  const std::string bytes = v3_file_bytes(path, original, modules, kBlock, /*compress=*/true);

  const auto lm = faultinject::landmarks_v3(to_vec(bytes), events_offset_of(bytes));
  ASSERT_EQ(lm.block_offsets.size(), kEvents / kBlock);

  // Packed column payloads carry no redundancy, so mid-column garbling
  // can silently re-quantize values; what MUST fail is damage to the
  // block's own header — magic, layout, declared count or tag column.
  faultinject::Fault f;
  f.kind = faultinject::FaultKind::kGarble;
  f.offset = lm.block_offsets[5];
  f.length = 16;
  f.seed = 99;
  write_bytes(path, to_str(faultinject::apply(to_vec(bytes), f)));

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const SalvageManifest& m = reader->manifest();
  EXPECT_TRUE(m.index_usable);
  EXPECT_EQ(m.blocks_dropped, 1u);
  ASSERT_EQ(m.losses.size(), 1u);
  EXPECT_EQ(m.losses[0].block, 5u);
  EXPECT_EQ(m.losses[0].events_declared, kBlock);
  EXPECT_FALSE(m.losses[0].reason.empty());
  EXPECT_EQ(m.events_recovered, kEvents - kBlock);
  EXPECT_TRUE(m.bytes_conserved());

  Trace expected;
  expected.sample_rate_hz = original.sample_rate_hz;
  expected.stacks = original.stacks;
  expected.functions = original.functions;
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i / kBlock != 5) expected.events.push_back(original.events[i]);
  }
  const auto bundle = reader->read_all();
  ASSERT_TRUE(bundle.has_value()) << bundle.error();
  EXPECT_EQ(v1_bytes(bundle->trace, bundle->modules), v1_bytes(expected, modules));
  expect_for_each_matches_read_all(*reader);
}

TEST(SalvageReader, CompressedTraceWithoutIndexIsUnrecoverableButAccounted) {
  // With the trailer gone the sequential scan is the only fallback, and
  // it stops at the first compressed block's 0xEC byte — compressed
  // events are only reachable through the index (docs/robustness.md).
  // The manifest must still conserve bytes.
  const Trace original = synth_trace(3'000, 31);
  const bom::ModuleTable modules = test_modules();
  const std::string path = tmp_path("salv_c_trailer.trc");
  const std::string bytes =
      v3_file_bytes(path, original, modules, 1u << 20, /*compress=*/true);
  write_bytes(path, bytes.substr(0, bytes.size() - 10));

  auto reader = TraceReader::open(path, salvage_opts());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const SalvageManifest& m = reader->manifest();
  EXPECT_FALSE(m.index_usable);
  EXPECT_TRUE(m.sequential_scan);
  EXPECT_EQ(m.events_recovered, 0u);
  EXPECT_TRUE(m.bytes_conserved());
  expect_for_each_matches_read_all(*reader);
}

}  // namespace
}  // namespace ecohmem::trace
