#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "ecohmem/check/lint.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"

namespace ecohmem::trace {
namespace {

bom::ModuleTable test_modules() {
  bom::ModuleTable mt;
  mt.add_module("a.x", 1 << 20, 2 << 20);
  mt.add_module("b.so", 1 << 20, 1 << 20);
  return mt;
}

Trace make_trace() {
  Trace t;
  t.sample_rate_hz = 100.0;
  const StackId s0 = t.stacks.intern(bom::CallStack{{{0, 0x10}, {1, 0x20}}});
  const StackId s1 = t.stacks.intern(bom::CallStack{{{0, 0x30}}});
  const std::uint32_t fn = t.functions.intern("matvec");

  t.events.emplace_back(MarkerEvent{5, fn, true});
  t.events.emplace_back(AllocEvent{10, 1, 0x1000, 4096, s0, AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{12, 2, 0x2000, 8192, s1, AllocKind::kCalloc});
  t.events.emplace_back(SampleEvent{20, 0x1040, 3.5, 180.0, false, fn});
  t.events.emplace_back(SampleEvent{25, 0x2100, 2.0, 0.0, true, fn});
  t.events.emplace_back(UncoreBwEvent{30, 10, 12.5, 3.5});
  t.events.emplace_back(FreeEvent{40, 1});
  t.events.emplace_back(MarkerEvent{50, fn, false});
  return t;
}

TEST(StackTable, InternDeduplicates) {
  StackTable st;
  const bom::CallStack cs{{{0, 0x10}}};
  EXPECT_EQ(st.intern(cs), st.intern(cs));
  EXPECT_EQ(st.size(), 1u);
  EXPECT_NE(st.intern(bom::CallStack{{{0, 0x11}}}), st.intern(cs));
  EXPECT_EQ(st.size(), 2u);
}

TEST(FunctionTable, InternDeduplicates) {
  FunctionTable ft;
  EXPECT_EQ(ft.intern("f"), ft.intern("f"));
  EXPECT_EQ(ft.name(ft.intern("g")), "g");
  EXPECT_EQ(ft.size(), 2u);
}

TEST(Events, EventTimeVisitsAllVariants) {
  EXPECT_EQ(event_time(Event{AllocEvent{10}}), 10u);
  EXPECT_EQ(event_time(Event{FreeEvent{11}}), 11u);
  EXPECT_EQ(event_time(Event{SampleEvent{12}}), 12u);
  EXPECT_EQ(event_time(Event{MarkerEvent{13}}), 13u);
  EXPECT_EQ(event_time(Event{UncoreBwEvent{14}}), 14u);
}

TEST(TraceFile, RoundTripPreservesEverything) {
  const Trace original = make_trace();
  const bom::ModuleTable modules = test_modules();

  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original, modules).ok());

  const auto loaded = read_trace(buffer);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const Trace& t = loaded->trace;

  EXPECT_DOUBLE_EQ(t.sample_rate_hz, 100.0);
  EXPECT_EQ(t.stacks.size(), original.stacks.size());
  EXPECT_EQ(t.stacks.stack(0), original.stacks.stack(0));
  EXPECT_EQ(t.functions.name(0), "matvec");
  ASSERT_EQ(t.events.size(), original.events.size());

  const auto& alloc = std::get<AllocEvent>(t.events[1]);
  EXPECT_EQ(alloc.object_id, 1u);
  EXPECT_EQ(alloc.size, 4096u);
  EXPECT_EQ(alloc.kind, AllocKind::kMalloc);

  const auto& sample = std::get<SampleEvent>(t.events[3]);
  EXPECT_DOUBLE_EQ(sample.weight, 3.5);
  EXPECT_DOUBLE_EQ(sample.latency_ns, 180.0);
  EXPECT_FALSE(sample.is_store);

  const auto& store = std::get<SampleEvent>(t.events[4]);
  EXPECT_TRUE(store.is_store);

  const auto& uncore = std::get<UncoreBwEvent>(t.events[5]);
  EXPECT_DOUBLE_EQ(uncore.read_gbs, 12.5);
  EXPECT_EQ(uncore.period_ns, 10u);

  // Module table travels with the trace.
  EXPECT_EQ(loaded->modules.size(), 2u);
  EXPECT_EQ(loaded->modules.module(1).name, "b.so");
  EXPECT_EQ(loaded->modules.module(0).debug_info_size, Bytes{2u << 20});
}

TEST(TraceFile, RejectsBadMagic) {
  std::stringstream buffer("NOTATRACE-----------------");
  EXPECT_FALSE(read_trace(buffer).has_value());
}

TEST(TraceFile, RejectsTruncation) {
  const Trace original = make_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original, test_modules()).ok());
  const std::string full = buffer.str();
  // Chop at several points; every prefix must fail cleanly.
  for (const double frac : {0.2, 0.5, 0.9, 0.99}) {
    const auto cut_len =
        static_cast<std::size_t>(static_cast<double>(full.size()) * frac);
    std::stringstream cut(full.substr(0, cut_len));
    EXPECT_FALSE(read_trace(cut).has_value()) << "fraction " << frac;
  }
}

TEST(TraceFile, RejectsDanglingStackReference) {
  Trace t;
  t.events.emplace_back(AllocEvent{1, 1, 0x10, 64, /*stack=*/7, AllocKind::kMalloc});
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, t, test_modules()).ok());
  EXPECT_FALSE(read_trace(buffer).has_value());
}

TEST(TraceFile, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/ecohmem_test.trc";
  ASSERT_TRUE(save_trace(path, make_trace(), test_modules()).ok());
  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded->trace.events.size(), make_trace().events.size());
  EXPECT_FALSE(load_trace("/no/such/file.trc").has_value());
}

TEST(TraceFile, EmptyTraceRoundTrips) {
  Trace t;
  bom::ModuleTable empty;
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, t, empty).ok());
  const auto loaded = read_trace(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->trace.events.size(), 0u);
}

TEST(TraceFile, RejectsEveryVersionButV3) {
  // Hand-built headers with empty tables and no events: a v1 or v2 file
  // (formats this build no longer reads) and a future v4 must fail
  // soft, with the same message from a strict open, a salvage open and
  // ecohmem-lint's trace-load diagnostic: the version, the offset of the
  // version field, and what to do about it.
  for (const std::uint32_t version : {1u, 2u, 4u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string bytes = "ECOHMTRC";
    const auto put = [&bytes](const auto& v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(version);
    put(100.0);                 // sample rate
    put(std::uint32_t{0});      // modules
    put(std::uint32_t{0});      // stacks
    put(std::uint32_t{0});      // functions
    put(std::uint64_t{0});      // events
    const std::string path = testing::TempDir() + "/ecohmem_version.trc";
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }

    const auto strict = TraceReader::open(path);
    ASSERT_FALSE(strict.has_value());
    const std::string& message = strict.error();
    EXPECT_NE(message.find("version " + std::to_string(version) + " at offset 8"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("re-profile"), std::string::npos) << message;

    TraceOpenOptions salvage;
    salvage.salvage = true;
    const auto salvaged = TraceReader::open(path, salvage);
    ASSERT_FALSE(salvaged.has_value());
    EXPECT_EQ(salvaged.error(), message);

    check::LintInputs inputs;
    inputs.trace_path = path;
    const auto linted = check::lint_files(inputs);
    ASSERT_TRUE(linted.has_value()) << linted.error();
    const auto load = std::find_if(linted->diagnostics.begin(), linted->diagnostics.end(),
                                   [](const check::Diagnostic& d) { return d.rule == "trace-load"; });
    ASSERT_NE(load, linted->diagnostics.end());
    EXPECT_EQ(load->severity, check::Severity::kError);
    EXPECT_EQ(load->message, message);
  }
}

}  // namespace
}  // namespace ecohmem::trace
