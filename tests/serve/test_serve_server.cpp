// Socket-level contracts of the ecohmem-serve daemon: a client
// ingesting a trace over the wire gets a placement report byte-equal
// to the offline ecohmem-advisor; a second client can attach and query
// mid-ingest; backpressure surfaces as BUSY; shutdown drains
// gracefully; and malformed frames follow the docs/serving.md
// close-vs-continue table.
//
// These suites are part of the ci.sh concurrency filter (TSan +
// lockdep): every test runs the real accept loop, handler threads and
// session locks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "ecohmem/serve/client.hpp"
#include "ecohmem/serve/server.hpp"

namespace ecohmem::serve {
namespace {

struct Profiled {
  trace::Trace trace;
  bom::ModuleTable modules;
};

Profiled profile_app(const std::string& app) {
  apps::AppOptions opt;
  opt.iterations = 2;
  const runtime::Workload workload = apps::make_app(app, opt);
  const auto sys = memsim::paper_system(6);
  EXPECT_TRUE(sys.has_value()) << sys.error();
  profiler::Profiler prof;
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&*sys, eopt);
  runtime::FixedTierMode mode(&*sys, 1);
  const auto metrics = engine.run(workload, mode);
  EXPECT_TRUE(metrics.has_value()) << metrics.error();
  return {prof.take_trace(), *workload.modules};
}

/// Deterministic two-stack synthetic stream: allocations with
/// interleaved frees and access samples, so the session's live map
/// grows and shrinks across many ingest blocks.
Profiled synth_stream(std::size_t n) {
  Profiled p;
  trace::Trace& t = p.trace;
  t.sample_rate_hz = 1000.0;
  const trace::StackId s0 = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const trace::StackId s1 = t.stacks.intern(bom::CallStack{{{0, 0x20}, {1, 0x8}}});
  const std::uint32_t fn = t.functions.intern("synth");
  p.modules.add_module("synth.x", 1u << 20);
  p.modules.add_module("libsynth.so", 1u << 20);

  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  Ns time = 0;
  std::uint64_t next_id = 1;
  std::uint64_t next_addr = 0x100000;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // object id, address
  t.events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    time += 10 + rnd() % 40;
    switch (rnd() % 8) {
      case 0:
      case 1: {
        const Bytes size = 64 + rnd() % 4096;
        t.events.emplace_back(trace::AllocEvent{time, next_id, next_addr, size,
                                                (i % 2) != 0 ? s0 : s1,
                                                trace::AllocKind::kMalloc});
        live.emplace_back(next_id, next_addr);
        next_addr += size + 64;
        ++next_id;
        break;
      }
      case 2:
        if (live.empty()) {
          t.events.emplace_back(trace::MarkerEvent{time, fn, true});
        } else {
          const std::size_t k = rnd() % live.size();
          t.events.emplace_back(trace::FreeEvent{time, live[k].first});
          live[k] = live.back();
          live.pop_back();
        }
        break;
      default:
        t.events.emplace_back(trace::SampleEvent{
            time, live.empty() ? 0x10 : live[rnd() % live.size()].second + rnd() % 64,
            1.0 + static_cast<double>(rnd() % 8) * 0.5, static_cast<double>(rnd() % 400),
            rnd() % 4 == 0, fn});
    }
  }
  return p;
}

/// The offline pipeline the daemon must match byte-for-byte: analyze,
/// knapsack, optional bandwidth-aware pass, BOM report.
std::string offline_report(const trace::Trace& t, const bom::ModuleTable& modules,
                           const advisor::AdvisorConfig& config,
                           bool bandwidth_aware) {
  const auto analysis = analyzer::analyze(t);
  EXPECT_TRUE(analysis.has_value()) << analysis.error();
  auto placement = advisor::place_by_density(analysis->sites, config);
  EXPECT_TRUE(placement.has_value()) << placement.error();
  if (bandwidth_aware) {
    advisor::BandwidthAwareOptions bw;
    bw.peak_pmem_bw_gbs = analysis->observed_peak_bw_gbs;
    bw.dram_tier = config.tiers.front().name;
    bw.pmem_tier = config.fallback_tier().name;
    auto refined = advisor::place_bandwidth_aware(analysis->sites, *placement, config, bw);
    EXPECT_TRUE(refined.has_value()) << refined.error();
    *placement = std::move(refined->placement);
  }
  const auto text =
      advisor::report_to_string(*placement, advisor::ReportFormat::kBom, modules);
  EXPECT_TRUE(text.has_value()) << text.error();
  return text.value_or("");
}

/// A minimal module table covering the synthetic single-frame stacks
/// the protocol-focused tests ingest (frame module id 0).
bom::ModuleTable one_module_table() {
  bom::ModuleTable modules;
  modules.add_module("served-app", 1u << 20);
  Rng rng(1);
  modules.assign_bases(/*aslr=*/false, rng);
  return modules;
}

/// A running daemon on a per-test socket path, with the run() loop on
/// its own thread; stops and joins on destruction.
class TestDaemon {
 public:
  explicit TestDaemon(ServerOptions options) {
    options.socket_path = path_ = "/tmp/ecohmem_serve_test_" +
                                  std::to_string(::getpid()) + "_" +
                                  std::to_string(counter_++) + ".sock";
    auto server = Server::create(std::move(options));
    EXPECT_TRUE(server.has_value()) << server.error();
    server_ = std::move(*server);
    thread_ = std::thread([this] {
      const auto status = server_->run();
      EXPECT_TRUE(status.ok()) << status.error();
    });
  }

  ~TestDaemon() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] Server& server() { return *server_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static std::atomic<int> counter_;
  std::string path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

std::atomic<int> TestDaemon::counter_{0};

TEST(ServeConcurrencyServer, ReportMatchesOfflineAdvisor) {
  // Two inputs: hpcg in 1024-event blocks through the bandwidth-aware
  // pass, and a synthetic two-stack stream with frees in 4096-event
  // blocks placed by density alone.
  struct Input {
    const char* name;
    Profiled p;
    advisor::AdvisorConfig config;
    std::size_t block_events;
    bool bandwidth_aware;
  };
  const Input inputs[] = {
      {"hpcg", profile_app("hpcg"), advisor::AdvisorConfig::dram_pmem(12ull << 30, 0.125), 1024,
       true},
      {"synthetic", synth_stream(100'000), advisor::AdvisorConfig::dram_pmem(1ull << 30, 0.125),
       4096, false},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const trace::Trace& t = in.p.trace;
    const std::string offline = offline_report(t, in.p.modules, in.config, in.bandwidth_aware);

    TestDaemon daemon(ServerOptions{});
    auto client = Client::connect(daemon.path());
    ASSERT_TRUE(client.has_value()) << client.error();
    ASSERT_TRUE(
        client->hello_create(t.stacks, t.functions, in.p.modules, t.sample_rate_hz).ok());
    EXPECT_EQ(client->session_id(), 1u);
    ASSERT_TRUE(client->ingest_events(t.events, in.block_events).ok());

    const auto report = client->query(in.config, in.bandwidth_aware);
    ASSERT_TRUE(report.has_value()) << report.error();
    EXPECT_EQ(report->events_analyzed, t.events.size());
    EXPECT_EQ(report->text, offline) << "served report must be byte-equal to ecohmem-advisor";

    const auto stats = client->stats();
    ASSERT_TRUE(stats.has_value()) << stats.error();
    EXPECT_EQ(stats->events_seen, t.events.size());
    EXPECT_EQ(stats->events_declared, t.events.size());
    EXPECT_EQ(stats->blocks_dropped, 0u);
    EXPECT_EQ(stats->poisoned, 0u);
    ASSERT_TRUE(client->bye().ok());
  }
}

TEST(ServeConcurrencyServer, SecondClientQueriesMidIngest) {
  const Profiled p = profile_app("phase-shift");
  const trace::Trace& t = p.trace;
  const auto config = advisor::AdvisorConfig::dram_pmem(12ull << 30, 0.0);
  const std::string offline = offline_report(t, p.modules, config, /*bandwidth_aware=*/false);

  TestDaemon daemon(ServerOptions{});
  auto writer = Client::connect(daemon.path());
  ASSERT_TRUE(writer.has_value()) << writer.error();
  ASSERT_TRUE(
      writer->hello_create(t.stacks, t.functions, p.modules, t.sample_rate_hz).ok());
  const std::uint64_t session_id = writer->session_id();

  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    const auto status = writer->ingest_events(t.events, 256);
    EXPECT_TRUE(status.ok()) << status.error();
    ingest_done.store(true);
  });

  // A second connection attaches to the same session and queries while
  // blocks are still streaming in; every answer is a consistent epoch.
  auto reader = Client::connect(daemon.path());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  ASSERT_TRUE(reader->hello_attach(session_id).ok());
  std::uint64_t last_epoch = 0;
  while (!ingest_done.load()) {
    const auto mid = reader->query(config);
    ASSERT_TRUE(mid.has_value()) << mid.error();
    ASSERT_GE(mid->epoch, last_epoch);
    last_epoch = mid->epoch;
  }
  ingest.join();

  const auto final_report = reader->query(config);
  ASSERT_TRUE(final_report.has_value()) << final_report.error();
  EXPECT_EQ(final_report->events_analyzed, t.events.size());
  EXPECT_EQ(final_report->text, offline);

  const auto stats = reader->stats();
  ASSERT_TRUE(stats.has_value()) << stats.error();
  EXPECT_EQ(stats->attached_clients, 2u);
  ASSERT_TRUE(reader->bye().ok());
  ASSERT_TRUE(writer->bye().ok());
}

TEST(ServeConcurrencyServer, BackpressureSurfacesAsBusy) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;

  ServerOptions options;
  options.queue_blocks = 1;
  options.busy_retry_hint_ms = 1;
  options.before_apply = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return release; });
  };
  TestDaemon daemon(std::move(options));

  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  const auto block = [&](std::uint64_t id) {
    std::vector<trace::Event> events;
    events.emplace_back(
        trace::AllocEvent{id, id, 0x1000 * id, 64, s, trace::AllocKind::kMalloc});
    return events;
  };

  auto client = Client::connect(daemon.path());
  ASSERT_TRUE(client.has_value()) << client.error();
  ASSERT_TRUE(client->hello_create(stacks, trace::FunctionTable{}, one_module_table(), 1000.0)
                  .ok());
  EXPECT_EQ(client->negotiated().queue_blocks, 1u);

  // Block 1 parks the applier in before_apply; wait for the pop so the
  // queue state is deterministic, then block 2 fills it, block 3 gets
  // BUSY (and block_seq does not advance).
  auto first = client->ingest_block_once(block(1));
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_EQ(*first, Client::Ingest::kAccepted);
  const auto session = daemon.server().sessions().find(client->session_id());
  ASSERT_NE(session, nullptr);
  while (session->stats().queue_depth != 0) std::this_thread::yield();

  auto second = client->ingest_block_once(block(2));
  ASSERT_TRUE(second.has_value()) << second.error();
  ASSERT_EQ(*second, Client::Ingest::kAccepted);

  auto third = client->ingest_block_once(block(3));
  ASSERT_TRUE(third.has_value()) << third.error();
  EXPECT_EQ(*third, Client::Ingest::kBusy);
  EXPECT_EQ(client->last_busy().queue_depth, 1u);
  EXPECT_EQ(client->last_busy().retry_hint_ms, 1u);

  // Releasing the gate lets the retry land; the resent block is not
  // double-counted.
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(client->ingest_block(block(3)).ok());

  const auto stats = client->stats();
  ASSERT_TRUE(stats.has_value()) << stats.error();
  EXPECT_EQ(stats->blocks_accepted, 3u);
  ASSERT_TRUE(client->bye().ok());
}

TEST(ServeConcurrencyServer, GracefulDrainAppliesQueuedBlocks) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;

  ServerOptions options;
  options.queue_blocks = 64;
  options.before_apply = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return release; });
  };
  TestDaemon daemon(std::move(options));
  const std::string socket_path = daemon.path();

  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});
  auto client = Client::connect(socket_path);
  ASSERT_TRUE(client.has_value()) << client.error();
  ASSERT_TRUE(client->hello_create(stacks, trace::FunctionTable{}, one_module_table(), 1000.0)
                  .ok());
  for (std::uint64_t i = 1; i <= 8; ++i) {
    std::vector<trace::Event> events;
    events.emplace_back(
        trace::AllocEvent{i, i, 0x1000 * i, 64, s, trace::AllocKind::kMalloc});
    ASSERT_TRUE(client->ingest_block(events).ok());
  }
  const auto session = daemon.server().sessions().find(client->session_id());
  ASSERT_NE(session, nullptr);

  // Stop the daemon with blocks still queued behind the gate. An idle
  // connected client receives ERROR shutting-down; the drain applies
  // every accepted block before run() returns.
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    release = true;
    gate_cv.notify_all();
  });
  daemon.stop();
  releaser.join();

  const auto farewell = client->read_reply();
  ASSERT_TRUE(farewell.has_value()) << farewell.error();
  EXPECT_EQ(farewell->type, FrameType::kError);
  const auto err = decode_error(farewell->payload);
  ASSERT_TRUE(err.has_value()) << err.error();
  EXPECT_EQ(err->code, ErrorCode::kShuttingDown);

  EXPECT_EQ(session->stats().epoch, 8u) << "drain must apply every accepted block";
  EXPECT_EQ(session->stats().queue_depth, 0u);
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0) << "socket file must be unlinked";
}

TEST(ServeConcurrencyServer, ProtocolViolationsFollowTheStateMachine) {
  TestDaemon daemon(ServerOptions{});

  {  // Any frame before HELLO is bad-sequence and closes.
    auto client = Client::connect(daemon.path());
    ASSERT_TRUE(client.has_value()) << client.error();
    const auto stats = client->stats();
    ASSERT_FALSE(stats.has_value());
    EXPECT_NE(stats.error().find("bad-sequence"), std::string::npos);
  }
  {  // Unknown frame type closes with unknown-type.
    auto client = Client::connect(daemon.path());
    ASSERT_TRUE(client.has_value()) << client.error();
    std::string raw;
    append_frame(raw, static_cast<FrameType>(0x55), "junk");
    ASSERT_TRUE(client->send_raw(raw).ok());
    const auto reply = client->read_reply();
    ASSERT_TRUE(reply.has_value()) << reply.error();
    ASSERT_EQ(reply->type, FrameType::kError);
    const auto err = decode_error(reply->payload);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::kUnknownType);
  }
  {  // A zero-length frame is malformed and closes.
    auto client = Client::connect(daemon.path());
    ASSERT_TRUE(client.has_value()) << client.error();
    ASSERT_TRUE(client->send_raw(std::string(4, '\0')).ok());
    const auto reply = client->read_reply();
    ASSERT_TRUE(reply.has_value()) << reply.error();
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(decode_error(reply->payload)->code, ErrorCode::kMalformedFrame);
  }
  {  // HELLO attach to a nonexistent session closes with no-such-session.
    auto client = Client::connect(daemon.path());
    ASSERT_TRUE(client.has_value()) << client.error();
    const auto status = client->hello_attach(4242);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.error().find("no-such-session"), std::string::npos);
  }
  {  // An undecodable HELLO header blob is malformed.
    auto client = Client::connect(daemon.path());
    ASSERT_TRUE(client.has_value()) << client.error();
    HelloRequest hello;
    hello.header = "not a trace header";
    std::string payload;
    encode_hello(payload, hello);
    std::string raw;
    append_frame(raw, FrameType::kHello, payload);
    ASSERT_TRUE(client->send_raw(raw).ok());
    const auto reply = client->read_reply();
    ASSERT_TRUE(reply.has_value()) << reply.error();
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(decode_error(reply->payload)->code, ErrorCode::kMalformedFrame);
  }
}

TEST(ServeConcurrencyServer, BadBlockIsSalvagedNotFatal) {
  TestDaemon daemon(ServerOptions{});
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});

  auto client = Client::connect(daemon.path());
  ASSERT_TRUE(client.has_value()) << client.error();
  ASSERT_TRUE(client->hello_create(stacks, trace::FunctionTable{}, one_module_table(), 1000.0)
                  .ok());

  // A block whose body does not decode: declared events become lost
  // coverage, the session survives, the sequence number advances.
  IngestBlock bad;
  bad.block_seq = 0;
  bad.event_count = 100;
  bad.block = "garbage that is not a v3 block";
  std::string payload;
  encode_ingest_block(payload, bad);
  std::string raw;
  append_frame(raw, FrameType::kIngestBlock, payload);
  ASSERT_TRUE(client->send_raw(raw).ok());
  const auto reply = client->read_reply();
  ASSERT_TRUE(reply.has_value()) << reply.error();
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_error(reply->payload)->code, ErrorCode::kBadBlock);

  // The session is still usable — but the client-side seq tracker must
  // skip the consumed seq 0, so drive the next block manually.
  IngestBlock good;
  good.block_seq = 1;
  good.event_count = 1;
  Ns last_time = 0;
  trace::codec::encode_event_compact(
      good.block, trace::Event{trace::AllocEvent{1, 1, 0x1000, 64, s, trace::AllocKind::kMalloc}},
      last_time);
  payload.clear();
  encode_ingest_block(payload, good);
  raw.clear();
  append_frame(raw, FrameType::kIngestBlock, payload);
  ASSERT_TRUE(client->send_raw(raw).ok());
  const auto ok_reply = client->read_reply();
  ASSERT_TRUE(ok_reply.has_value()) << ok_reply.error();
  ASSERT_EQ(ok_reply->type, FrameType::kBlockOk);

  // SNAPSHOT flushes (applies every accepted block) before answering;
  // STATS deliberately does not, so take the snapshot first to make the
  // counters below deterministic.
  const auto snap = client->snapshot_csv();
  ASSERT_TRUE(snap.has_value()) << snap.error();
  EXPECT_NE(snap->csv.find("salvaged"), std::string::npos);

  const auto stats = client->stats();
  ASSERT_TRUE(stats.has_value()) << stats.error();
  EXPECT_EQ(stats->blocks_dropped, 1u);
  EXPECT_EQ(stats->events_declared, 101u);
  EXPECT_EQ(stats->events_seen, 1u);
  EXPECT_EQ(stats->poisoned, 0u);
}

TEST(ServeConcurrencyServer, ByeCloseRetiresTheSession) {
  TestDaemon daemon(ServerOptions{});
  trace::StackTable stacks;

  auto client = Client::connect(daemon.path());
  ASSERT_TRUE(client.has_value()) << client.error();
  ASSERT_TRUE(client->hello_create(stacks, trace::FunctionTable{}, one_module_table(), 1000.0)
                  .ok());
  const std::uint64_t id = client->session_id();
  EXPECT_EQ(daemon.server().sessions().size(), 1u);
  ASSERT_TRUE(client->bye(/*close_session=*/true).ok());

  // The registry no longer knows the id: a new attach fails.
  auto late = Client::connect(daemon.path());
  ASSERT_TRUE(late.has_value()) << late.error();
  const auto status = late->hello_attach(id);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("no-such-session"), std::string::npos);
  EXPECT_EQ(daemon.server().sessions().size(), 0u);
}

TEST(ServeConcurrencyServer, ManyParallelSessions) {
  // Several clients each drive an independent session concurrently;
  // per-tenant isolation means every one sees exactly its own events.
  TestDaemon daemon(ServerOptions{});
  trace::StackTable stacks;
  const trace::StackId s = stacks.intern(bom::CallStack{{{0, 0x10}}});

  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::connect(daemon.path());
      ASSERT_TRUE(client.has_value()) << client.error();
      ASSERT_TRUE(
          client->hello_create(stacks, trace::FunctionTable{}, one_module_table(), 1000.0)
              .ok());
      const std::uint64_t blocks = 5 + static_cast<std::uint64_t>(c);
      for (std::uint64_t i = 1; i <= blocks; ++i) {
        std::vector<trace::Event> events;
        events.emplace_back(
            trace::AllocEvent{i, i, 0x1000 * i, 64, s, trace::AllocKind::kMalloc});
        ASSERT_TRUE(client->ingest_block(events).ok());
      }
      const auto stats = client->stats();
      ASSERT_TRUE(stats.has_value()) << stats.error();
      EXPECT_EQ(stats->blocks_accepted, blocks);
      const auto snap = client->snapshot_csv();
      ASSERT_TRUE(snap.has_value()) << snap.error();
      ASSERT_TRUE(client->bye().ok());
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(daemon.server().sessions().size(), 6u);
}

}  // namespace
}  // namespace ecohmem::serve
