// serve-mixed: an in-process serve::Server on a unix socket, driven as a
// closed loop by two clients on one session. The writer streams a seeded
// synthetic trace in 4096-event blocks with ingest_block_once, resending
// on BUSY itself; the reader attaches to the session and issues a fixed
// number of bandwidth-aware queries, each released when the writer has
// acknowledged its share of the blocks, the writer pausing until it
// returns (see Turns). One op is one session lifecycle:
// hello, ingest, the reader's queries, a final query, bye. Set-up
// generates the trace, computes the offline report the final query must
// match, and starts the server. The whole process runs on one CPU (see
// pin_to_one_cpu).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/serve/client.hpp"
#include "ecohmem/serve/server.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "synth.hpp"

namespace perfbench {

using namespace ecohmem;

namespace {

constexpr std::size_t kBlockEvents = 4096;
constexpr std::size_t kReaderQueries = 16;
constexpr std::size_t kQueueBlocks = 8;
constexpr std::size_t kStatsEvery = 16;  // traced runs: queue depth poll, in blocks

/// The writer/reader handshake. Query turn k is given to the reader once
/// the writer has (k+1)/(queries+1) of the blocks acknowledged, and the
/// writer sends nothing more until that query has returned: every op
/// asks the same queries at the same points of the stream, each flushing
/// the ingest backlog before it runs the advisor, whatever the speed.
class Turns {
 public:
  void give(std::size_t turn) {
    std::lock_guard<std::mutex> lock(mu_);
    given_ = turn + 1;
    cv_.notify_all();
  }
  void finish(std::size_t turn) {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = turn + 1;
    cv_.notify_all();
  }
  void wait_given(std::size_t turn) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return given_ > turn; });
  }
  void wait_done(std::size_t turn) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ > turn; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t given_ = 0;
  std::size_t done_ = 0;
};

/// Binds the calling thread, and with it every thread it starts later
/// (the server's, the clients'), to the CPU it is running on. Spread over
/// the host's virtual CPUs, the same op's stream took 190 ms for minutes
/// and then 350 ms for minutes, a swing no single-CPU reference run
/// followed; on one CPU the op is the CPU work of ingest, fold and
/// queries, interleaved by the scheduler, and scales with the reference.
void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// BUSY replies and backoff time of one stream.
struct Backpressure {
  std::uint64_t busy = 0;
  double wait_ms = 0.0;
};

/// Sends one block, resending on BUSY after the server's retry hint; the
/// resends are counted here, never absorbed by Client::ingest_block.
Status send_block(serve::Client& writer, const std::vector<trace::Event>& block,
                  Backpressure& bp) {
  for (;;) {
    Expected<serve::Client::Ingest> verdict = unexpected("not run");
    {
      Span span("serve", "ingest");
      verdict = writer.ingest_block_once(block);
    }
    if (!verdict) return unexpected("ingest: " + verdict.error());
    if (*verdict == serve::Client::Ingest::kAccepted) return {};
    ++bp.busy;
    const auto wait_start = Clock::now();
    {
      Span span("serve", "busy_wait", /*wait=*/true);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::uint32_t>(1, writer.last_busy().retry_hint_ms)));
    }
    bp.wait_ms += ms_since(wait_start);
  }
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const RunOptions& options)
      : options_(options), sys_(*memsim::paper_system(6)),
        config_(tier_config(sys_, kDramLimit)),
        socket_(".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock") {}

  ~ServeMixed() override { stop_server(); }
  ServeMixed(const ServeMixed&) = delete;
  ServeMixed& operator=(const ServeMixed&) = delete;

  Status setup() override {
    stop_server();
    pin_to_one_cpu();
    SynthSpec spec;
    spec.seed = derive_seed(options_.seed, 0x5e);
    spec.events = 1'500'000;
    spec.sites = 2000;
    spec.windows = 300;
    if (options_.smoke) {
      spec.events = 40'000;
      spec.sites = 200;
      spec.windows = 40;
    }
    profile_ = make_synth_profile(spec);
    const trace::Trace& t = profile_.trace;
    blocks_.clear();
    for (std::size_t off = 0; off < t.events.size(); off += kBlockEvents) {
      const std::size_t end = std::min(off + kBlockEvents, t.events.size());
      blocks_.emplace_back(t.events.begin() + static_cast<std::ptrdiff_t>(off),
                           t.events.begin() + static_cast<std::ptrdiff_t>(end));
    }

    // The offline answer: analyze() + both advisor passes on the same events.
    analyzer::AnalyzerOptions aopt;
    const auto analysis = analyzer::analyze(t, aopt);
    if (!analysis) return unexpected("offline analyze: " + analysis.error());
    const auto advice = advise(*analysis, config_, config_.tiers.front().name,
                               config_.fallback_tier().name, *profile_.app.modules, nullptr);
    if (!advice) return unexpected("offline advisor: " + advice.error());
    offline_report_ = advice->report;
    profile_.trace.events = {};  // the blocks hold the stream now

    serve::ServerOptions sopt;
    sopt.socket_path = socket_;
    // A short queue keeps the writer in backpressure, so BUSY resends
    // are part of every op; they follow the applier at 1 ms granularity
    // rather than the daemon's default 5 ms backoff quantum.
    sopt.queue_blocks = kQueueBlocks;
    sopt.busy_retry_hint_ms = 1;
    auto server = serve::Server::create(std::move(sopt));
    if (!server) return unexpected("server: " + server.error());
    server_ = std::move(*server);
    server_thread_ = std::thread([this] { (void)server_->run(); });
    ops_ = 0;
    mismatches_ = 0;
    return {};
  }

  Status op(std::size_t index, OpResult& out) override {
    (void)index;
    const trace::Trace& t = profile_.trace;
    auto writer = serve::Client::connect(socket_);
    if (!writer) return unexpected("connect: " + writer.error());
    {
      Span span("serve", "hello");
      if (auto s = writer->hello_create(t.stacks, t.functions, *profile_.app.modules,
                                        t.sample_rate_hz);
          !s) {
        return unexpected("hello: " + s.error());
      }
    }
    const std::uint64_t session = writer->session_id();

    Turns turns;
    std::vector<double> reader_ms(kReaderQueries, std::numeric_limits<double>::infinity());
    std::uint32_t depth_max = 0;
    std::string reader_error;
    const bool traced = tracer().enabled();
    const int op_span = tracer().current();
    std::thread reader([&] {
      if (traced) tracer().adopt(op_span);
      auto client = serve::Client::connect(socket_);
      const Status attached = client ? client->hello_attach(session)
                                     : Status(unexpected("connect: " + client.error()));
      if (!attached) reader_error = attached.error();
      for (std::size_t q = 0; q < kReaderQueries; ++q) {
        turns.wait_given(q);
        if (attached) {
          const auto start = Clock::now();
          Expected<serve::Report> report = unexpected("not run");
          {
            Span span("serve", "query");
            report = client->query(config_, /*bandwidth_aware=*/true);
          }
          if (report) reader_ms[q] = ms_since(start);
          else if (reader_error.empty()) reader_error = report.error();
        }
        turns.finish(q);
      }
      if (client) (void)client->bye();
    });

    std::vector<double> block_ms;
    block_ms.reserve(blocks_.size());
    Backpressure bp;
    double query_wait_ms = 0.0;
    std::size_t next_turn = 0;
    // Hands out every turn due at `acked` blocks and waits for each.
    const auto hand_over = [&](std::size_t acked) {
      while (next_turn < kReaderQueries &&
             acked >= (next_turn + 1) * blocks_.size() / (kReaderQueries + 1)) {
        const auto wait_start = Clock::now();
        Span span("serve", "query_wait", /*wait=*/true);
        turns.give(next_turn);
        turns.wait_done(next_turn);
        ++next_turn;
        query_wait_ms += ms_since(wait_start);
      }
    };
    Status ingest;
    const auto stream_start = Clock::now();
    for (const auto& block : blocks_) {
      const auto block_start = Clock::now();
      ingest = send_block(*writer, block, bp);
      if (!ingest) break;
      block_ms.push_back(ms_since(block_start));
      if (traced && block_ms.size() % kStatsEvery == 0) {
        Span span("serve", "stats");
        if (const auto stats = writer->stats()) depth_max = std::max(depth_max, stats->queue_depth);
      }
      hand_over(block_ms.size());
    }
    hand_over(blocks_.size());  // after a failed ingest: release the reader
    const double stream_ms = ms_since(stream_start) - query_wait_ms;

    out.queries_attempted += 1;
    const auto final_start = Clock::now();
    Expected<serve::Report> final_report = unexpected("ingest failed");
    if (ingest) {
      Span span("serve", "query");
      final_report = writer->query(config_, /*bandwidth_aware=*/true);
    }
    const double final_ms = ms_since(final_start);
    {
      Span span("serve", "reader_join", /*wait=*/true);
      reader.join();
    }
    {
      Span span("serve", "bye");
      (void)writer->bye(/*close_session=*/true);
    }
    if (!ingest) return ingest;

    out.queries_attempted += kReaderQueries;
    for (const double ms : reader_ms) {
      out.query_ms.push_back(ms);  // a failed query is +inf: beyond any tail
      if (ms == std::numeric_limits<double>::infinity()) out.queries_failed += 1;
    }
    if (!final_report) {
      out.queries_failed += 1;
      out.query_ms.push_back(std::numeric_limits<double>::infinity());
      return unexpected("final query: " + final_report.error());
    }
    out.query_ms.push_back(final_ms);
    if (!reader_error.empty()) return unexpected("reader: " + reader_error);

    ops_ += 1;
    if (final_report->text != offline_report_ ||
        final_report->events_analyzed != static_cast<std::uint64_t>(blocks_events())) {
      mismatches_ += 1;
    }
    out.events = static_cast<double>(blocks_events());
    out.events_ms = stream_ms;
    if (traced) {
      out.layer["serve.ingest_block_ms_p50"] = quantile(block_ms, 0.5);
      out.layer["serve.ingest_block_ms_tail"] = tail_of(block_ms).value;
      out.layer["serve.busy_ratio"] =
          static_cast<double>(bp.busy) / static_cast<double>(blocks_.size());
      out.layer["serve.busy_wait_ms"] = bp.wait_ms;
      out.layer["serve.queue_depth_max"] = depth_max;
    }
    return {};
  }

  Status layer_passes(std::size_t index) override {
    (void)index;
    // The analyzer's incremental fold alone on the same blocks.
    {
      const trace::Trace& t = profile_.trace;
      analyzer::IncrementalAggregator fold(t.stacks, t.functions, {});
      for (const auto& block : blocks_) {
        Span span("analyzer", "fold");
        if (auto s = fold.ingest(block); !s) return s;
      }
      Span span("analyzer", "finalize");
      if (auto r = fold.finalize(); !r) return unexpected(r.error());
    }
    return concurrent_probe();
  }

  /// One more session in which the reader's query is not given a turn:
  /// it is asked after the first 1/(queries+1) of the blocks while the
  /// writer keeps streaming. Its latency (serve.concurrent_query_ms)
  /// shows whether queries starve behind a writer that keeps the ingest
  /// queue full — the regime the timed op's turns keep out of its
  /// end-to-end numbers because it flips from run to run.
  Status concurrent_probe() {
    const trace::Trace& t = profile_.trace;
    auto writer = serve::Client::connect(socket_);
    if (!writer) return unexpected("connect: " + writer.error());
    if (auto s = writer->hello_create(t.stacks, t.functions, *profile_.app.modules,
                                      t.sample_rate_hz);
        !s) {
      return unexpected("hello: " + s.error());
    }
    const std::uint64_t session = writer->session_id();
    Turns turns;
    std::string reader_error;
    std::thread reader([&] {
      auto client = serve::Client::connect(socket_);
      const Status attached = client ? client->hello_attach(session)
                                     : Status(unexpected("connect: " + client.error()));
      turns.wait_given(0);
      if (attached) {
        Span span("serve", "concurrent_query");
        if (auto r = client->query(config_, /*bandwidth_aware=*/true); !r) reader_error = r.error();
      } else {
        reader_error = attached.error();
      }
      if (client) (void)client->bye();
    });
    Backpressure bp;
    Status ingest;
    for (std::size_t b = 0; b < blocks_.size() && ingest; ++b) {
      ingest = send_block(*writer, blocks_[b], bp);
      if (b + 1 == blocks_.size() / (kReaderQueries + 1)) turns.give(0);
    }
    turns.give(0);  // no-op unless the stream was shorter than one share
    reader.join();
    (void)writer->bye(/*close_session=*/true);
    if (!ingest) return ingest;
    if (!reader_error.empty()) return unexpected("concurrent query: " + reader_error);
    return {};
  }

  Status check(double& sim_speedup) override {
    if (ops_ == 0) return unexpected("no op ran");
    if (mismatches_ != 0) {
      return unexpected(std::to_string(mismatches_) + " of " + std::to_string(ops_) +
                        " served reports differ from offline analyze + advisor");
    }
    const auto speedup = simulate_report(profile_.app, sys_, offline_report_, kDramLimit);
    if (!speedup) return unexpected("simulated replay: " + speedup.error());
    sim_speedup = *speedup;
    return {};
  }

 private:
  std::size_t blocks_events() const {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.size();
    return n;
  }

  void stop_server() {
    if (!server_) return;
    server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  RunOptions options_;
  memsim::MemorySystem sys_;
  advisor::AdvisorConfig config_;
  std::string socket_;
  SynthProfile profile_;
  std::vector<std::vector<trace::Event>> blocks_;
  std::string offline_report_;
  std::unique_ptr<serve::Server> server_;
  std::thread server_thread_;
  std::size_t ops_ = 0;
  std::size_t mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const RunOptions& options) {
  return std::make_unique<ServeMixed>(options);
}

}  // namespace perfbench
