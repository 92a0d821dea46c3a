#include "ecohmem/serve/session.hpp"

#include <utility>

namespace ecohmem::serve {

Session::Session(std::uint64_t id, trace::codec::HeaderInfo header, SessionOptions options)
    : id_(id),
      header_(std::move(header)),
      options_(std::move(options)),
      store_(header_.stacks, header_.functions, options_.analyzer) {
  applier_ = std::thread([this] { applier_loop(); });
}

Session::~Session() {
  {
    common::ScopedLock lock(queue_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  applier_.join();
}

Session::Enqueue Session::enqueue_block(std::vector<trace::Event> events) {
  {
    common::ScopedLock lock(queue_mu_);
    if (stopping_) return Enqueue::kClosed;
    if (queue_.size() >= options_.queue_blocks) return Enqueue::kBusy;
    queue_.push_back(std::move(events));
    ++accepted_blocks_;
  }
  work_cv_.notify_one();
  return Enqueue::kAccepted;
}

void Session::note_dropped_block(std::uint64_t declared_events) {
  common::ScopedLock lock(store_mu_);
  ++dropped_blocks_;
  dropped_events_ += declared_events;
}

void Session::applier_loop() {
  for (;;) {
    std::vector<trace::Event> block;
    {
      common::ScopedLock lock(queue_mu_);
      work_cv_.wait(queue_mu_, [this] {
        queue_mu_.assert_held();
        return stopping_ || !queue_.empty();
      });
      // Drain semantics: keep applying until the queue is empty even
      // when stopping — accepted blocks are never dropped.
      if (queue_.empty()) return;
      block = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.before_apply) options_.before_apply();
    {
      common::ScopedLock lock(store_mu_);
      // A failed ingest poisons the store; later blocks keep the
      // sticky error (snapshot() reports it), but the queue still
      // drains so flush waiters never hang.
      (void)store_.ingest(block);
      ++epoch_;
    }
    {
      common::ScopedLock lock(queue_mu_);
      ++applied_blocks_;
    }
    applied_cv_.notify_all();
  }
}

void Session::flush() {
  common::ScopedLock lock(queue_mu_);
  const std::uint64_t target = accepted_blocks_;
  applied_cv_.wait(queue_mu_, [this, target] {
    queue_mu_.assert_held();
    return applied_blocks_ >= target;
  });
}

Expected<Session::Snapshot> Session::snapshot() {
  // Flush barrier: every block accepted before this call must be
  // applied. Blocks accepted *during* the wait may also land — the
  // snapshot is then simply a later consistent prefix.
  flush();

  common::ScopedLock lock(store_mu_);
  if (!store_.error().empty()) return unexpected(store_.error());
  if (cached_ != nullptr && cached_epoch_ == epoch_) {
    return Snapshot{epoch_, store_.events_ingested(), cached_};
  }
  trace::TraceCoverage coverage;
  coverage.events_seen = store_.events_ingested();
  coverage.events_declared = store_.events_ingested() + dropped_events_;
  coverage.salvaged = dropped_blocks_ > 0;
  auto analysis = store_.finalize(coverage);
  if (!analysis) return unexpected(analysis.error());
  cached_ = std::make_shared<const analyzer::AnalysisResult>(std::move(*analysis));
  cached_epoch_ = epoch_;
  return Snapshot{epoch_, store_.events_ingested(), cached_};
}

SessionStats Session::stats() {
  SessionStats out;
  out.session_id = id_;
  out.attached_clients = attach_count_.load(std::memory_order_relaxed);
  {
    common::ScopedLock lock(queue_mu_);
    out.blocks_accepted = accepted_blocks_;
    out.queue_depth = static_cast<std::uint32_t>(queue_.size());
  }
  {
    common::ScopedLock lock(store_mu_);
    out.epoch = epoch_;
    out.blocks_dropped = dropped_blocks_;
    out.events_seen = store_.events_ingested();
    out.events_declared = store_.events_ingested() + dropped_events_;
    out.error = store_.error();
  }
  return out;
}

SessionManager::SessionManager(SessionOptions defaults, std::size_t max_sessions)
    : defaults_(std::move(defaults)), max_sessions_(max_sessions) {}

Expected<std::shared_ptr<Session>> SessionManager::create(trace::codec::HeaderInfo header) {
  common::ScopedLock lock(mu_);
  if (sessions_.size() >= max_sessions_) {
    return unexpected("session limit reached (" + std::to_string(max_sessions_) + ")");
  }
  const std::uint64_t id = next_id_++;
  auto session = std::make_shared<Session>(id, std::move(header), defaults_);
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<Session> SessionManager::find(std::uint64_t id) {
  common::ScopedLock lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionManager::erase(std::uint64_t id) {
  std::shared_ptr<Session> victim;  // destroyed after the lock drops
  common::ScopedLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  victim = std::move(it->second);
  sessions_.erase(it);
  return true;
}

std::vector<std::shared_ptr<Session>> SessionManager::all() {
  common::ScopedLock lock(mu_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& entry : sessions_) out.push_back(entry.second);
  return out;
}

std::size_t SessionManager::size() {
  common::ScopedLock lock(mu_);
  return sessions_.size();
}

}  // namespace ecohmem::serve
