// Session-store contracts of the ecohmem-serve daemon:
//  - the incremental aggregator is bit-identical to the offline
//    analyze() for any block partitioning, store-only sample traces
//    included,
//  - Session snapshots are epoch-consistent and cached,
//  - dropped blocks degrade coverage (salvage semantics) while
//    semantic errors poison the session stickily,
//  - the bounded queue reports backpressure and never drops accepted
//    blocks.
//
// The ServeConcurrency suites here also run under the TSan filter in
// ci.sh (concurrent ingest + snapshot on the live locks).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/common/rng.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "ecohmem/serve/session.hpp"

namespace ecohmem::serve {
namespace {

void expect_bits(double a, double b, const char* what) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, 8);
  std::memcpy(&ub, &b, 8);
  EXPECT_EQ(ua, ub) << what << ": " << a << " vs " << b;
}

/// The full bit-identity contract of docs/serving.md
/// §snapshot-consistency: every double compared by bit pattern.
void expect_identical(const analyzer::AnalysisResult& offline,
                      const analyzer::AnalysisResult& served) {
  ASSERT_EQ(offline.sites.size(), served.sites.size());
  for (std::size_t i = 0; i < offline.sites.size(); ++i) {
    const analyzer::SiteRecord& a = offline.sites[i];
    const analyzer::SiteRecord& b = served.sites[i];
    EXPECT_EQ(a.stack, b.stack) << "site " << i;
    EXPECT_EQ(a.callstack, b.callstack) << "site " << i;
    EXPECT_EQ(a.max_size, b.max_size) << "site " << i;
    EXPECT_EQ(a.peak_live_bytes, b.peak_live_bytes) << "site " << i;
    EXPECT_EQ(a.alloc_count, b.alloc_count) << "site " << i;
    expect_bits(a.load_misses, b.load_misses, "load_misses");
    expect_bits(a.store_misses, b.store_misses, "store_misses");
    expect_bits(a.avg_load_latency_ns, b.avg_load_latency_ns, "avg_load_latency_ns");
    EXPECT_EQ(a.first_alloc, b.first_alloc) << "site " << i;
    EXPECT_EQ(a.last_free, b.last_free) << "site " << i;
    expect_bits(a.total_lifetime_ns, b.total_lifetime_ns, "total_lifetime_ns");
    expect_bits(a.mean_lifetime_ns, b.mean_lifetime_ns, "mean_lifetime_ns");
    expect_bits(a.exec_bw_gbs, b.exec_bw_gbs, "exec_bw_gbs");
    expect_bits(a.alloc_time_system_bw_gbs, b.alloc_time_system_bw_gbs,
                "alloc_time_system_bw_gbs");
    expect_bits(a.exec_time_system_bw_gbs, b.exec_time_system_bw_gbs,
                "exec_time_system_bw_gbs");
    EXPECT_EQ(a.has_writes, b.has_writes) << "site " << i;
  }

  expect_bits(offline.observed_peak_bw_gbs, served.observed_peak_bw_gbs, "observed_peak");

  ASSERT_EQ(offline.functions.size(), served.functions.size());
  for (std::size_t i = 0; i < offline.functions.size(); ++i) {
    EXPECT_EQ(offline.functions[i].name, served.functions[i].name) << "function " << i;
    expect_bits(offline.functions[i].load_samples, served.functions[i].load_samples,
                "load_samples");
    expect_bits(offline.functions[i].avg_load_latency_ns,
                served.functions[i].avg_load_latency_ns, "function latency");
  }

  EXPECT_EQ(offline.trace_end, served.trace_end);
  expect_bits(offline.unattributed_samples, served.unattributed_samples, "unattributed");
}

/// Profiles `app` through the execution engine (the ecohmem-profile
/// path) so the trace carries real alloc/free/sample/uncore streams.
trace::Trace profile_app(const std::string& app, const profiler::ProfilerOptions& popt = {}) {
  apps::AppOptions opt;
  opt.iterations = 2;
  const runtime::Workload workload = apps::make_app(app, opt);
  const auto sys = memsim::paper_system(6);
  EXPECT_TRUE(sys.has_value()) << sys.error();
  profiler::Profiler prof(popt);
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&*sys, eopt);
  runtime::FixedTierMode mode(&*sys, 1);
  const auto metrics = engine.run(workload, mode);
  EXPECT_TRUE(metrics.has_value()) << metrics.error();
  return prof.take_trace();
}

trace::codec::HeaderInfo header_of(const trace::Trace& t) {
  trace::codec::HeaderInfo h;
  h.version = trace::codec::kVersionIndexed;
  h.sample_rate_hz = t.sample_rate_hz;
  h.stacks = t.stacks;
  h.functions = t.functions;
  return h;
}

std::vector<std::vector<trace::Event>> partition(const std::vector<trace::Event>& events,
                                                 std::size_t block_events) {
  std::vector<std::vector<trace::Event>> blocks;
  for (std::size_t begin = 0; begin < events.size(); begin += block_events) {
    const std::size_t end = std::min(events.size(), begin + block_events);
    blocks.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(begin),
                        events.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return blocks;
}

void check_incremental_identity(const std::string& app,
                                const profiler::ProfilerOptions& popt = {}) {
  const trace::Trace t = profile_app(app, popt);
  ASSERT_FALSE(t.events.empty());
  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();

  for (const std::size_t block_events : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    analyzer::IncrementalAggregator inc(t.stacks, t.functions);
    for (const auto& block : partition(t.events, block_events)) {
      const auto s = inc.ingest(block);
      ASSERT_TRUE(s.ok()) << s.error();
    }
    const auto served = inc.finalize();
    ASSERT_TRUE(served.has_value()) << served.error();
    SCOPED_TRACE(app + " block_events=" + std::to_string(block_events));
    expect_identical(*offline, *served);
  }
}

TEST(ServeIncremental, HpcgIdenticalToOffline) { check_incremental_identity("hpcg"); }
TEST(ServeIncremental, PhaseShiftIdenticalToOffline) {
  check_incremental_identity("phase-shift");
}
TEST(ServeIncremental, MiniFeIdenticalToOffline) { check_incremental_identity("minife"); }
TEST(ServeIncremental, StoreOnlyFunctionsIdenticalToOffline) {
  // Without load samples every function is known from its stores alone;
  // served and offline analysis must list the same functions.
  profiler::ProfilerOptions popt;
  popt.sample_loads = false;
  check_incremental_identity("minife", popt);
  check_incremental_identity("lulesh", popt);
}

TEST(ServeIncremental, FinalizeIsRepeatable) {
  // What finalize() carries never changes a later result: a mid-stream
  // snapshot then more ingest then a second snapshot must equal a fresh
  // aggregator over each prefix.
  const trace::Trace t = profile_app("hpcg");
  const std::size_t half = t.events.size() / 2;

  analyzer::IncrementalAggregator inc(t.stacks, t.functions);
  ASSERT_TRUE(inc.ingest(t.events.data(), half).ok());
  const auto mid = inc.finalize();
  ASSERT_TRUE(mid.has_value()) << mid.error();

  trace::Trace prefix;
  prefix.stacks = t.stacks;
  prefix.functions = t.functions;
  prefix.sample_rate_hz = t.sample_rate_hz;
  prefix.events.assign(t.events.begin(), t.events.begin() + static_cast<std::ptrdiff_t>(half));
  const auto offline_mid = analyzer::analyze(prefix);
  ASSERT_TRUE(offline_mid.has_value()) << offline_mid.error();
  expect_identical(*offline_mid, *mid);

  ASSERT_TRUE(inc.ingest(t.events.data() + half, t.events.size() - half).ok());
  const auto full = inc.finalize();
  ASSERT_TRUE(full.has_value()) << full.error();
  const auto offline_full = analyzer::analyze(t);
  ASSERT_TRUE(offline_full.has_value()) << offline_full.error();
  expect_identical(*offline_full, *full);
}

/// Snapshots `t` after every slice of `slice` events and checks each
/// against analyze() of the same prefix: whatever finalize() carries
/// from one snapshot to the next must leave every snapshot equal to a
/// fresh fold of its prefix.
void check_snapshot_per_slice(const trace::Trace& t, std::size_t slice,
                              const analyzer::AnalyzerOptions& options = {}) {
  analyzer::IncrementalAggregator inc(t.stacks, t.functions, options);
  trace::Trace prefix;
  prefix.stacks = t.stacks;
  prefix.functions = t.functions;
  prefix.sample_rate_hz = t.sample_rate_hz;
  for (std::size_t at = 0; at < t.events.size(); at += slice) {
    const std::size_t n = std::min(slice, t.events.size() - at);
    const auto status = inc.ingest(t.events.data() + at, n);
    ASSERT_TRUE(status.ok()) << status.error();
    const auto snap = inc.finalize();
    ASSERT_TRUE(snap.has_value()) << snap.error();

    const auto first = t.events.begin() + static_cast<std::ptrdiff_t>(at);
    prefix.events.insert(prefix.events.end(), first, first + static_cast<std::ptrdiff_t>(n));
    const auto offline = analyzer::analyze(prefix, options);
    ASSERT_TRUE(offline.has_value()) << offline.error();
    SCOPED_TRACE("slices of " + std::to_string(slice) + ", prefix of " +
                 std::to_string(at + n) + " events");
    expect_identical(*offline, *snap);
    if (::testing::Test::HasFailure()) return;  // report the first diverging prefix only
  }
}

/// A seeded stream (bins of 1000 ns) that hits every way state carried
/// between snapshots can go stale: a samples-only prefix and then the
/// first uncore reading; a reading whose period reaches back behind
/// earlier snapshots; sample, uncore, alloc and free timestamps that go
/// backwards; allocations and frees on bin edges; address reuse while
/// live, with frees of the displaced objects; objects live at the end.
trace::Trace snapshot_edge_stream(std::uint64_t seed) {
  using trace::AllocEvent;
  using trace::FreeEvent;
  using trace::SampleEvent;
  using trace::UncoreBwEvent;
  constexpr Ns kBin = 1000;
  trace::Trace t;
  t.sample_rate_hz = 1000.0;
  std::vector<trace::StackId> stacks;
  for (std::uint64_t k = 0; k < 6; ++k) {
    stacks.push_back(t.stacks.intern(bom::CallStack{{{0, 0x100 + 0x10 * k}}}));
  }
  for (const char* name : {"spmv", "dot", "halo"}) t.functions.intern(name);

  Rng rng(seed);
  const auto next = [&rng](std::uint64_t n) { return rng.next_u64() % n; };
  struct Live {
    std::uint64_t id;
    std::uint64_t address;
    Bytes size;
  };
  std::vector<Live> live;
  std::uint64_t next_id = 1;
  Ns now = 0;
  auto& e = t.events;

  const auto to_edge = [&] { now = (now / kBin + 1) * kBin; };
  const auto alloc = [&](Ns time) {
    const std::uint64_t id = next_id++;
    // One allocation in eight reuses the address of a live object.
    const std::uint64_t address =
        !live.empty() && next(8) == 0 ? live[next(live.size())].address : 0x100000 * id;
    const Bytes size = 64 + next(4096);
    e.emplace_back(AllocEvent{time, id, address, size, stacks[next(stacks.size())],
                              trace::AllocKind::kMalloc});
    live.push_back(Live{id, address, size});
  };
  const auto free_one = [&](Ns time) {
    const std::size_t k = next(live.size());
    e.emplace_back(FreeEvent{time, live[k].id});
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
  };
  const auto uncore = [&](Ns time, Ns period) {
    e.emplace_back(UncoreBwEvent{time, period, static_cast<double>(next(40)) / 4.0, 0.5});
  };
  const auto sample = [&](Ns time) {
    const bool store = next(4) == 0;
    std::uint64_t address = 0x7000'0000 + next(1 << 20);  // outside every object
    if (!live.empty() && next(6) != 0) {
      const Live& obj = live[next(live.size())];
      address = obj.address + next(obj.size + 1);
    }
    e.emplace_back(SampleEvent{time, address, 1.0 + static_cast<double>(next(4)) * 0.5,
                               store ? 0.0 : 50.0 + static_cast<double>(next(400)), store,
                               static_cast<std::uint32_t>(next(3))});
  };
  const auto steps = [&](int n, Ns period) {
    for (int k = 0; k < n; ++k) {
      now += 1 + next(700);
      const std::uint64_t r = next(16);
      if (r < 4 || live.empty()) {
        if (next(4) == 0) to_edge();
        alloc(now);
      } else if (r < 7) {
        if (next(3) == 0) to_edge();
        free_one(now);
      } else if (period > 0 && r < 9) {
        uncore(now, period);
      } else {
        sample(now);
      }
    }
  };

  steps(150, 0);
  sample(now - 4500);  // backwards, into the sample meter
  steps(150, 0);
  uncore(now + 10, 1500);  // the first uncore reading
  now += 10;
  steps(300, 1500);
  uncore(now + 10, 25'000);  // reaches back behind earlier snapshots
  now += 10;
  steps(200, 1500);
  uncore(now - 6000, 1000);  // backwards, into the uncore meter
  alloc(now - 2000);         // backwards allocation
  free_one(now - 3000);      // backwards free
  steps(200, 1500);
  return t;
}

TEST(ServeIncremental, SnapshotAfterEverySliceMatchesPrefix) {
  for (const char* app : {"hpcg", "lulesh", "openfoam"}) {
    SCOPED_TRACE(app);
    const trace::Trace t = profile_app(app);
    ASSERT_FALSE(t.events.empty());
    for (const std::size_t slice : {t.events.size() / 64 + 1, t.events.size() / 7 + 1}) {
      check_snapshot_per_slice(t, slice);
      if (HasFailure()) return;
    }
  }

  analyzer::AnalyzerOptions options;
  options.bw_bin_ns = 1000;
  options.alloc_window_ns = 4000;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const trace::Trace t = snapshot_edge_stream(seed);
    for (const std::size_t slice : {std::size_t{1}, std::size_t{13}}) {
      check_snapshot_per_slice(t, slice, options);
      if (HasFailure()) return;
    }
  }
}

TEST(ServeIncremental, SemanticErrorIsSticky) {
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  trace::FunctionTable functions;
  analyzer::IncrementalAggregator inc(stacks, functions);

  std::vector<trace::Event> bad;
  bad.emplace_back(trace::AllocEvent{1, 7, 0x1000, 64, s, trace::AllocKind::kMalloc});
  bad.emplace_back(trace::FreeEvent{2, 7});
  bad.emplace_back(trace::FreeEvent{3, 7});
  const auto status = inc.ingest(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("unknown object"), std::string::npos);

  // Later (healthy) blocks do not clear the error; finalize keeps failing.
  std::vector<trace::Event> good;
  good.emplace_back(trace::AllocEvent{4, 8, 0x2000, 64, s, trace::AllocKind::kMalloc});
  EXPECT_FALSE(inc.ingest(good).ok());
  EXPECT_FALSE(inc.finalize().has_value());
  EXPECT_EQ(inc.error(), status.error());
}

// ---------------------------------------------------------------------
// Session: queue + applier + snapshot cache. These suites are part of
// the ci.sh concurrency filter (TSan).

TEST(ServeConcurrencySession, SnapshotMatchesOfflineAcrossBlockSizes) {
  const trace::Trace t = profile_app("hpcg");
  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();

  for (const std::size_t block_events : {std::size_t{256}, std::size_t{4096}}) {
    Session session(1, header_of(t), SessionOptions{});
    std::uint64_t accepted = 0;
    for (auto& block : partition(t.events, block_events)) {
      ASSERT_EQ(session.enqueue_block(std::move(block)), Session::Enqueue::kAccepted);
      ++accepted;
    }
    const auto snap = session.snapshot();
    ASSERT_TRUE(snap.has_value()) << snap.error();
    EXPECT_EQ(snap->epoch, accepted);
    EXPECT_EQ(snap->events, t.events.size());
    SCOPED_TRACE("block_events=" + std::to_string(block_events));
    expect_identical(*offline, *snap->analysis);
  }
}

TEST(ServeConcurrencySession, SnapshotCacheSharedPerEpoch) {
  const trace::Trace t = profile_app("minife");
  Session session(1, header_of(t), SessionOptions{});
  auto blocks = partition(t.events, 1024);
  ASSERT_GE(blocks.size(), 2u);
  ASSERT_EQ(session.enqueue_block(std::move(blocks[0])), Session::Enqueue::kAccepted);

  const auto first = session.snapshot();
  ASSERT_TRUE(first.has_value()) << first.error();
  const auto again = session.snapshot();
  ASSERT_TRUE(again.has_value()) << again.error();
  EXPECT_EQ(first->analysis.get(), again->analysis.get()) << "same epoch, same cached result";

  ASSERT_EQ(session.enqueue_block(std::move(blocks[1])), Session::Enqueue::kAccepted);
  const auto later = session.snapshot();
  ASSERT_TRUE(later.has_value()) << later.error();
  EXPECT_GT(later->epoch, first->epoch);
  EXPECT_NE(later->analysis.get(), first->analysis.get());
}

TEST(ServeConcurrencySession, DroppedBlocksDegradeCoverage) {
  const trace::Trace t = profile_app("minife");
  Session session(1, header_of(t), SessionOptions{});
  auto blocks = partition(t.events, t.events.size());
  ASSERT_EQ(session.enqueue_block(std::move(blocks[0])), Session::Enqueue::kAccepted);
  session.note_dropped_block(500);

  const auto snap = session.snapshot();
  ASSERT_TRUE(snap.has_value()) << snap.error();
  EXPECT_TRUE(snap->analysis->coverage.salvaged);
  EXPECT_EQ(snap->analysis->coverage.events_seen, t.events.size());
  EXPECT_EQ(snap->analysis->coverage.events_declared, t.events.size() + 500);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.blocks_dropped, 1u);
  EXPECT_EQ(stats.events_declared, t.events.size() + 500);
  EXPECT_TRUE(stats.error.empty());
}

TEST(ServeConcurrencySession, PoisonedSessionKeepsFailing) {
  trace::codec::HeaderInfo h;
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  h.stacks = stacks;
  Session session(1, h, SessionOptions{});

  std::vector<trace::Event> bad;
  bad.emplace_back(trace::AllocEvent{1, 7, 0x1000, 64, s, trace::AllocKind::kMalloc});
  bad.emplace_back(trace::FreeEvent{2, 7});
  bad.emplace_back(trace::FreeEvent{3, 7});
  ASSERT_EQ(session.enqueue_block(std::move(bad)), Session::Enqueue::kAccepted);

  const auto snap = session.snapshot();
  ASSERT_FALSE(snap.has_value());
  EXPECT_NE(snap.error().find("unknown object"), std::string::npos);

  // The queue still drains and stats report the sticky error.
  std::vector<trace::Event> good;
  good.emplace_back(trace::AllocEvent{4, 8, 0x2000, 64, s, trace::AllocKind::kMalloc});
  ASSERT_EQ(session.enqueue_block(std::move(good)), Session::Enqueue::kAccepted);
  EXPECT_FALSE(session.snapshot().has_value());
  EXPECT_FALSE(session.stats().error.empty());
}

TEST(ServeConcurrencySession, BoundedQueueReportsBusy) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;

  SessionOptions opts;
  opts.queue_blocks = 1;
  opts.before_apply = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return release; });
  };

  trace::codec::HeaderInfo h;
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  h.stacks = stacks;
  Session session(1, h, opts);

  const auto block = [&](std::uint64_t id) {
    std::vector<trace::Event> events;
    events.emplace_back(
        trace::AllocEvent{id, id, 0x1000 * id, 64, s, trace::AllocKind::kMalloc});
    return events;
  };

  // Block 1 is popped by the applier, which then parks in
  // before_apply. Wait for the pop (queue observably empty) so the
  // rest is deterministic: block 2 fills the queue, block 3 bounces.
  ASSERT_EQ(session.enqueue_block(block(1)), Session::Enqueue::kAccepted);
  while (session.stats().queue_depth != 0) std::this_thread::yield();
  ASSERT_EQ(session.enqueue_block(block(2)), Session::Enqueue::kAccepted);
  ASSERT_EQ(session.enqueue_block(block(3)), Session::Enqueue::kBusy);

  // Backpressure rejects without losing anything already accepted:
  // release the gate and both accepted blocks land.
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  const auto snap = session.snapshot();
  ASSERT_TRUE(snap.has_value()) << snap.error();
  EXPECT_EQ(snap->epoch, 2u);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.blocks_accepted, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeConcurrencySession, ConcurrentQueriesDuringIngest) {
  // One writer streams blocks while two readers snapshot/stat
  // continuously; the final snapshot must be bit-identical to the
  // offline analysis — mid-ingest queries must not perturb the store.
  const trace::Trace t = profile_app("phase-shift");
  const auto offline = analyzer::analyze(t);
  ASSERT_TRUE(offline.has_value()) << offline.error();

  Session session(1, header_of(t), SessionOptions{});
  std::atomic<bool> ingest_done{false};

  std::thread writer([&] {
    for (const auto& block : partition(t.events, 512)) {
      for (;;) {  // enqueue consumes its argument, so retry with a copy
        auto copy = block;
        if (session.enqueue_block(std::move(copy)) == Session::Enqueue::kAccepted) break;
      }
    }
    ingest_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!ingest_done.load()) {
        const auto snap = session.snapshot();
        ASSERT_TRUE(snap.has_value()) << snap.error();
        // Epochs only move forward; events only grow.
        ASSERT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        (void)session.stats();
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  const auto final_snap = session.snapshot();
  ASSERT_TRUE(final_snap.has_value()) << final_snap.error();
  EXPECT_EQ(final_snap->events, t.events.size());
  expect_identical(*offline, *final_snap->analysis);
}

TEST(ServeConcurrencySession, ManagerShardsSessionsById) {
  SessionManager manager(SessionOptions{}, /*max_sessions=*/3);
  trace::codec::HeaderInfo h;
  const auto s1 = manager.create(h);
  const auto s2 = manager.create(h);
  const auto s3 = manager.create(h);
  ASSERT_TRUE(s1.has_value() && s2.has_value() && s3.has_value());
  EXPECT_FALSE(manager.create(h).has_value()) << "session limit must gate create";

  EXPECT_EQ(manager.find((*s2)->id()).get(), s2->get());
  EXPECT_EQ(manager.find(999), nullptr);
  EXPECT_EQ(manager.size(), 3u);

  const auto all = manager.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LT(all[0]->id(), all[1]->id());
  EXPECT_LT(all[1]->id(), all[2]->id());

  EXPECT_TRUE(manager.erase((*s1)->id()));
  EXPECT_FALSE(manager.erase((*s1)->id()));
  EXPECT_EQ(manager.size(), 2u);
  // A live reference outlives the registry entry.
  EXPECT_EQ((*s1)->stats().session_id, (*s1)->id());
}

TEST(ServeConcurrencySession, ConcurrentManagerCreateFindErase) {
  SessionManager manager(SessionOptions{}, /*max_sessions=*/1024);
  trace::codec::HeaderInfo h;
  std::vector<std::thread> workers;
  std::atomic<int> created{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < 32; ++i) {
        const auto session = manager.create(h);
        ASSERT_TRUE(session.has_value()) << session.error();
        created.fetch_add(1);
        ASSERT_NE(manager.find((*session)->id()), nullptr);
        if (i % 2 == 0) {
          ASSERT_TRUE(manager.erase((*session)->id()));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(created.load(), 128);
  EXPECT_EQ(manager.size(), 64u);
}

TEST(ServeConcurrencySession, ConcurrentCreateNeverExceedsTheLimit) {
  // The limit check and the insert are one step: racing HELLOs cannot
  // open more than max_sessions sessions. Each session starts an
  // applier thread, so the counts stay small.
  SessionManager manager(SessionOptions{}, /*max_sessions=*/16);
  trace::codec::HeaderInfo h;
  std::atomic<int> created{0};
  std::atomic<int> refused{0};
  std::atomic<int> wrong_error{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        const auto session = manager.create(h);
        if (session.has_value()) {
          created.fetch_add(1);
        } else if (session.error() == "session limit reached (16)") {
          refused.fetch_add(1);
        } else {
          wrong_error.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(created.load(), 16);
  EXPECT_EQ(refused.load(), 16);
  EXPECT_EQ(wrong_error.load(), 0);
  EXPECT_EQ(manager.size(), 16u);
}

}  // namespace
}  // namespace ecohmem::serve
