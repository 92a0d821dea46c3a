#pragma once

/// \file session.hpp
/// Per-client analysis sessions for the `ecohmem-serve` daemon.
///
/// A `Session` is a bounded ingest queue feeding an
/// `IncrementalAggregator` — the analyzer's one fold, which offline
/// `analyze()` also drives — from a dedicated applier thread, so
/// connection threads never block on analysis. Placement queries run
/// against **epoch-based snapshots**: `snapshot()` waits until every
/// block accepted before the call has been applied, then finalizes (or
/// reuses the cached result for that epoch) — ingestion continues
/// concurrently, and the snapshot for epoch E equals `analyze()` over
/// the first E blocks by construction (docs/serving.md
/// §snapshot-consistency).
///
/// Locking (lock table in docs/threading.md): no thread holds two locks.
///  - `queue_mu_` guards the ingest queue + block counters and carries
///    both condition variables (applier wakeup, flush).
///  - `store_mu_` guards the aggregator, the drop/coverage counters and
///    the snapshot cache.
/// The applier moves one block at a time: pop under the queue lock,
/// apply under the store lock, acknowledge under the queue lock — at
/// most one lock held at any point.
///
/// `SessionManager` is the daemon's registry: one map behind one lock,
/// taken only at HELLO, BYE and drain. Lookups copy the `shared_ptr`
/// out and release the registry lock before touching the session, so
/// registry and session locks never nest.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/thread_annotations.hpp"
#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::serve {

struct SessionOptions {
  /// Analyzer knobs for the session store (folded on the applier
  /// thread).
  analyzer::AnalyzerOptions analyzer;

  /// Ingest queue bound: blocks accepted but not yet applied. A full
  /// queue makes `enqueue_block` report backpressure (wire: BUSY).
  std::size_t queue_blocks = 64;

  /// Test hook: runs on the applier thread before each block is
  /// applied. Lets tests hold the queue full deterministically.
  std::function<void()> before_apply;
};

/// Counter snapshot for STATS replies; field meanings match
/// protocol::StatsData.
struct SessionStats {
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_dropped = 0;
  std::uint64_t events_seen = 0;
  std::uint64_t events_declared = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t attached_clients = 0;
  std::string error;  ///< first ingest error, empty while healthy
};

/// One tenant's analysis state. Thread-safe; created via SessionManager.
class Session {
 public:
  /// `header` carries the trace tables every event refers into
  /// (immutable for the session's lifetime). Spawns the applier thread.
  Session(std::uint64_t id, trace::codec::HeaderInfo header, SessionOptions options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Drains the queue and joins the applier.
  ~Session();

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// The session's trace header (stacks/functions/modules/rate).
  [[nodiscard]] const trace::codec::HeaderInfo& header() const { return header_; }

  /// Outcome of an enqueue attempt.
  enum class Enqueue {
    kAccepted,  ///< queued; will be applied in arrival order
    kBusy,      ///< queue full — backpressure, caller must resend
    kClosed,    ///< session is draining (daemon shutdown)
  };

  /// Hands one decoded block to the applier. Blocks are applied in
  /// acceptance order across all connections of this session.
  [[nodiscard]] Enqueue enqueue_block(std::vector<trace::Event> events);

  /// Coverage accounting for an INGEST_BLOCK whose body failed to
  /// decode: the declared events count as lost (salvage semantics —
  /// the session survives, its coverage degrades).
  void note_dropped_block(std::uint64_t declared_events);

  /// A consistent view of the session store.
  struct Snapshot {
    std::uint64_t epoch = 0;   ///< blocks applied when the snapshot was cut
    std::uint64_t events = 0;  ///< events folded into the analysis
    std::shared_ptr<const analyzer::AnalysisResult> analysis;
  };

  /// Flushes (waits until every block accepted before this call is
  /// applied) and finalizes the store. Consecutive snapshots of the
  /// same epoch share one cached result. Fails when the store is
  /// poisoned (a block hit a semantic error, e.g. a double free).
  [[nodiscard]] Expected<Snapshot> snapshot();

  /// The flush barrier alone: waits until every block accepted before
  /// this call has been applied to the store (shutdown drain, tests).
  void flush();

  /// Current counters (two brief lock hold periods, no flush).
  [[nodiscard]] SessionStats stats();

  /// Connection refcount, for STATS only — sessions outlive their
  /// connections (a later client may attach and query).
  void attach() { attach_count_.fetch_add(1, std::memory_order_relaxed); }
  void detach() { attach_count_.fetch_sub(1, std::memory_order_relaxed); }

 private:
  void applier_loop();

  const std::uint64_t id_;
  const trace::codec::HeaderInfo header_;
  const SessionOptions options_;

  common::Mutex queue_mu_;
  std::condition_variable_any work_cv_;     ///< queue_mu_: applier wakeup
  std::condition_variable_any applied_cv_;  ///< queue_mu_: flush waiters
  std::deque<std::vector<trace::Event>> queue_ ECOHMEM_GUARDED_BY(queue_mu_);
  std::uint64_t accepted_blocks_ ECOHMEM_GUARDED_BY(queue_mu_) = 0;
  std::uint64_t applied_blocks_ ECOHMEM_GUARDED_BY(queue_mu_) = 0;
  bool stopping_ ECOHMEM_GUARDED_BY(queue_mu_) = false;

  common::Mutex store_mu_;
  analyzer::IncrementalAggregator store_ ECOHMEM_GUARDED_BY(store_mu_);
  std::uint64_t epoch_ ECOHMEM_GUARDED_BY(store_mu_) = 0;
  std::uint64_t dropped_blocks_ ECOHMEM_GUARDED_BY(store_mu_) = 0;
  std::uint64_t dropped_events_ ECOHMEM_GUARDED_BY(store_mu_) = 0;
  std::uint64_t cached_epoch_ ECOHMEM_GUARDED_BY(store_mu_) = 0;
  std::shared_ptr<const analyzer::AnalysisResult> cached_ ECOHMEM_GUARDED_BY(store_mu_);

  std::atomic<std::uint32_t> attach_count_{0};

  std::thread applier_;  ///< started last, joined in the destructor
};

/// The daemon's session registry: one id-keyed map behind one lock.
class SessionManager {
 public:
  /// `defaults` seeds every new session's options; `max_sessions`
  /// bounds the registry (create fails beyond it).
  explicit SessionManager(SessionOptions defaults = {}, std::size_t max_sessions = 256);

  /// Opens a new session around `header`, assigning a fresh id. The
  /// limit check and the insert are one step under the registry lock,
  /// so concurrent creates never exceed `max_sessions`.
  [[nodiscard]] Expected<std::shared_ptr<Session>> create(trace::codec::HeaderInfo header);

  /// The session with `id`, or nullptr. The returned pointer keeps the
  /// session alive independently of the registry.
  [[nodiscard]] std::shared_ptr<Session> find(std::uint64_t id);

  /// Retires `id` from the registry (live references stay valid).
  bool erase(std::uint64_t id);

  /// Every registered session (shutdown drain, tests).
  [[nodiscard]] std::vector<std::shared_ptr<Session>> all();

  /// Registered session count.
  [[nodiscard]] std::size_t size();

 private:
  const SessionOptions defaults_;
  const std::size_t max_sessions_;

  common::Mutex mu_;
  std::uint64_t next_id_ ECOHMEM_GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_ ECOHMEM_GUARDED_BY(mu_);
};

}  // namespace ecohmem::serve
