#include "ecohmem/serve/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>

#include "ecohmem/advisor/report.hpp"
#include "ecohmem/advisor/stage.hpp"
#include "ecohmem/analyzer/site_report.hpp"
#include "ecohmem/trace/codec.hpp"

namespace ecohmem::serve {
namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Decodes the v3 block body of an INGEST_BLOCK: exactly `event_count`
/// compact events with a fresh delta base, no trailing bytes.
Expected<std::vector<trace::Event>> decode_block(const IngestBlock& msg,
                                                 std::uint32_t stack_count) {
  trace::codec::ByteReader r(reinterpret_cast<const unsigned char*>(msg.block.data()),
                             msg.block.size(), 0);
  std::vector<trace::Event> events;
  // Bound the reserve by what the bytes could possibly hold (every
  // compact event is at least 2 bytes) so a hostile count can't OOM us.
  const std::uint64_t plausible = msg.block.size() / 2 + 1;
  events.reserve(static_cast<std::size_t>(std::min(msg.event_count, plausible)));
  // Batch decode in bounded chunks: a hostile count fails on the first
  // starved chunk instead of sizing the vector for the full claim, and
  // the errors stay identical to a per-event decode.
  Ns last_time = 0;
  std::uint64_t remaining = msg.event_count;
  while (remaining > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(remaining, 16 * 1024);
    const std::size_t base = events.size();
    events.resize(base + static_cast<std::size_t>(chunk));
    auto status =
        trace::codec::decode_compact_events(r, stack_count, last_time, events.data() + base, chunk);
    if (!status.ok()) return unexpected(status.error());
    remaining -= chunk;
  }
  if (r.remaining() != 0) {
    return unexpected("block has " + std::to_string(r.remaining()) +
                      " trailing bytes after " + std::to_string(msg.event_count) + " events");
  }
  return events;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  SessionOptions defaults;
  defaults.analyzer = options_.analyzer;
  defaults.queue_blocks = options_.queue_blocks;
  defaults.before_apply = options_.before_apply;
  sessions_ = std::make_unique<SessionManager>(std::move(defaults), options_.max_sessions);
}

Expected<std::unique_ptr<Server>> Server::create(ServerOptions options) {
  if (options.socket_path.empty()) return unexpected("socket path must not be empty");
  if (options.socket_path.size() > common::posix::max_socket_path()) {
    return unexpected("socket path exceeds " +
                      std::to_string(common::posix::max_socket_path()) + " bytes: " +
                      options.socket_path);
  }
  if (options.queue_blocks == 0) return unexpected("queue bound must be at least 1 block");
  if (options.max_frame_bytes < 64) return unexpected("frame ceiling must be at least 64 bytes");
  auto server = std::unique_ptr<Server>(new Server(std::move(options)));
  auto wake = common::posix::WakePipe::create();
  if (!wake) return unexpected(wake.error());
  server->wake_ = std::move(*wake);
  auto listen = common::posix::listen_unix(server->options_.socket_path,
                                           server->options_.backlog);
  if (!listen) return unexpected(listen.error());
  server->listen_fd_ = std::move(*listen);
  return server;
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  wake_.write_one_byte();
}

void Server::reap_connections(bool join_all) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    ConnectionHandle& handle = connections_[i];
    if (join_all || handle.done->load(std::memory_order_acquire)) {
      handle.thread.join();
    } else {
      // Compact in place; guard against self-move-assignment, which for
      // a joinable std::thread would call std::terminate().
      if (kept != i) connections_[kept] = std::move(handle);
      ++kept;
    }
  }
  connections_.resize(join_all ? 0 : kept);
}

Status Server::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0}, {wake_.read_fd(), POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return unexpected(errno_message("poll on listen socket"));
    }
    if ((fds[1].revents & POLLIN) != 0) wake_.drain();
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    auto conn = common::posix::accept_unix(listen_fd_.get());
    if (!conn) continue;  // transient accept failure; keep serving
    reap_connections(/*join_all=*/false);
    auto done = std::make_shared<std::atomic<bool>>(false);
    ConnectionHandle handle;
    handle.done = done;
    handle.thread = std::thread([this, done, fd = std::move(*conn)]() mutable {
      handle_connection(std::move(fd));
      done->store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(handle));
  }

  // Graceful drain: stop accepting, let in-flight frames finish (each
  // handler notices stopping_ within its poll interval and replies
  // ERROR shutting-down), then apply every accepted block.
  listen_fd_.reset();
  reap_connections(/*join_all=*/true);
  for (const auto& session : sessions_->all()) session->flush();
  ::unlink(options_.socket_path.c_str());
  return {};
}

void Server::handle_connection(common::posix::UniqueFd fd) {
  std::shared_ptr<Session> session;
  std::uint64_t expected_seq = 0;

  const auto send = [&](FrameType type, const std::string& payload) -> bool {
    std::string out;
    append_frame(out, type, payload);
    return common::posix::send_full(fd.get(), out.data(), out.size()).ok();
  };
  const auto send_error = [&](ErrorCode code, std::string detail) -> bool {
    std::string payload;
    encode_error(payload, ErrorReply{code, std::move(detail)});
    return send(FrameType::kError, payload);
  };

  for (;;) {
    // Wait for the next frame, checking the drain flag at a bounded
    // interval so shutdown never waits on an idle client.
    pollfd pfd{fd.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (stopping_.load(std::memory_order_acquire)) {
      (void)send_error(ErrorCode::kShuttingDown, "daemon is draining");
      break;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    // Envelope: u32 length, then type byte + payload.
    std::uint32_t length = 0;
    auto first = common::posix::read_full_or_eof(fd.get(), &length, sizeof(length));
    if (!first || !*first) break;  // I/O error or clean close
    if (length == 0) {
      (void)send_error(ErrorCode::kMalformedFrame, "zero-length frame");
      break;
    }
    if (length > options_.max_frame_bytes) {
      (void)send_error(ErrorCode::kFrameTooLarge,
                       "frame length " + std::to_string(length) + " exceeds the ceiling " +
                           std::to_string(options_.max_frame_bytes));
      break;
    }
    std::string body(length, '\0');
    if (!common::posix::read_full(fd.get(), body.data(), body.size()).ok()) break;

    const auto raw_type = static_cast<std::uint8_t>(body[0]);
    const std::string_view payload = std::string_view(body).substr(1);
    const auto type = static_cast<FrameType>(raw_type);
    switch (type) {
      case FrameType::kHello:
      case FrameType::kIngestBlock:
      case FrameType::kQueryPlacement:
      case FrameType::kSnapshot:
      case FrameType::kStats:
      case FrameType::kBye:
        break;
      default:
        (void)send_error(ErrorCode::kUnknownType,
                         "unknown frame type " + std::to_string(raw_type));
        goto done;
    }

    // State machine: HELLO first, exactly once.
    if (session == nullptr && type != FrameType::kHello) {
      (void)send_error(ErrorCode::kBadSequence,
                       std::string(to_string(type)) + " before HELLO");
      break;
    }
    if (session != nullptr && type == FrameType::kHello) {
      (void)send_error(ErrorCode::kBadSequence, "second HELLO on this connection");
      break;
    }

    switch (type) {
      case FrameType::kHello: {
        auto msg = decode_hello(payload);
        if (!msg) {
          (void)send_error(ErrorCode::kMalformedFrame, msg.error());
          goto done;
        }
        if (msg->proto_version != kProtocolVersion) {
          (void)send_error(ErrorCode::kBadSequence,
                           "protocol version " + std::to_string(msg->proto_version) +
                               " not supported (server speaks " +
                               std::to_string(kProtocolVersion) + ")");
          goto done;
        }
        if (msg->session_id == 0) {
          trace::codec::ByteReader reader(
              reinterpret_cast<const unsigned char*>(msg->header.data()),
              msg->header.size(), 0);
          auto header = trace::codec::decode_header(reader);
          if (!header) {
            (void)send_error(ErrorCode::kMalformedFrame, header.error());
            goto done;
          }
          if (reader.remaining() != 0) {
            (void)send_error(ErrorCode::kMalformedFrame,
                             "HELLO header blob has trailing bytes");
            goto done;
          }
          auto created = sessions_->create(std::move(*header));
          if (!created) {
            (void)send_error(ErrorCode::kInternal, created.error());
            goto done;
          }
          session = std::move(*created);
        } else {
          session = sessions_->find(msg->session_id);
          if (session == nullptr) {
            (void)send_error(ErrorCode::kNoSuchSession,
                             "no session " + std::to_string(msg->session_id));
            goto done;
          }
        }
        session->attach();
        HelloOk ok;
        ok.proto_version = kProtocolVersion;
        ok.session_id = session->id();
        ok.epoch = session->stats().epoch;
        ok.max_frame_bytes = options_.max_frame_bytes;
        ok.queue_blocks = static_cast<std::uint32_t>(options_.queue_blocks);
        std::string reply;
        encode_hello_ok(reply, ok);
        if (!send(FrameType::kHelloOk, reply)) goto done;
        break;
      }

      case FrameType::kIngestBlock: {
        auto msg = decode_ingest_block(payload);
        if (!msg) {
          (void)send_error(ErrorCode::kMalformedFrame, msg.error());
          goto done;
        }
        if (msg->block_seq != expected_seq) {
          (void)send_error(ErrorCode::kBadSequence,
                           "block_seq " + std::to_string(msg->block_seq) + ", expected " +
                               std::to_string(expected_seq));
          goto done;
        }
        const auto stack_count = static_cast<std::uint32_t>(session->header().stacks.size());
        auto events = decode_block(*msg, stack_count);
        if (!events) {
          // Salvage semantics: the block is lost coverage, not a fatal
          // session error. seq advances — the block was consumed.
          session->note_dropped_block(msg->event_count);
          ++expected_seq;
          if (!send_error(ErrorCode::kBadBlock, events.error())) goto done;
          break;
        }
        const auto accepted = static_cast<std::uint64_t>(events->size());
        switch (session->enqueue_block(std::move(*events))) {
          case Session::Enqueue::kAccepted: {
            ++expected_seq;
            std::string reply;
            encode_block_ok(reply, BlockOk{msg->block_seq, accepted});
            if (!send(FrameType::kBlockOk, reply)) goto done;
            break;
          }
          case Session::Enqueue::kBusy: {
            // seq does NOT advance: the client must resend this block.
            std::string reply;
            encode_busy(reply, Busy{msg->block_seq,
                                    static_cast<std::uint32_t>(options_.queue_blocks),
                                    options_.busy_retry_hint_ms});
            if (!send(FrameType::kBusy, reply)) goto done;
            break;
          }
          case Session::Enqueue::kClosed:
            (void)send_error(ErrorCode::kShuttingDown, "session is draining");
            goto done;
        }
        break;
      }

      case FrameType::kQueryPlacement: {
        auto msg = decode_query_placement(payload);
        if (!msg) {
          (void)send_error(ErrorCode::kMalformedFrame, msg.error());
          goto done;
        }
        auto config = msg->to_config();
        if (!config) {
          if (!send_error(ErrorCode::kBadConfig, config.error())) goto done;
          break;
        }
        auto snap = session->snapshot();
        if (!snap) {
          if (!send_error(ErrorCode::kSessionPoisoned, snap.error())) goto done;
          break;
        }
        // The offline tool's Advisor stage: a negative or non-finite
        // peak is a bad config, 0 means the snapshot's observed peak.
        auto advice = advisor::run_stage(*snap->analysis, *config,
                                         (msg->flags & QueryPlacement::kBandwidthAware) != 0,
                                         msg->peak_pmem_bw_gbs);
        if (!advice) {
          if (!send_error(ErrorCode::kBadConfig, advice.error())) goto done;
          break;
        }
        // Report rendering resolves client-declared stacks against the
        // client-declared module table; a mismatch (stack frame naming a
        // module the HELLO never declared) must poison the reply, not
        // the daemon.
        std::string text;
        try {
          auto rendered = advisor::report_to_string(
              advice->placement, advisor::ReportFormat::kBom, session->header().modules);
          if (!rendered) {
            if (!send_error(ErrorCode::kInternal, rendered.error())) goto done;
            break;
          }
          text = std::move(*rendered);
        } catch (const std::exception& e) {
          if (!send_error(ErrorCode::kInternal,
                          std::string("report generation failed: ") + e.what())) {
            goto done;
          }
          break;
        }
        std::string reply;
        encode_report(reply, Report{snap->epoch, snap->events, std::move(text)});
        if (!send(FrameType::kReport, reply)) goto done;
        break;
      }

      case FrameType::kSnapshot: {
        if (!payload.empty()) {
          (void)send_error(ErrorCode::kMalformedFrame, "SNAPSHOT carries no payload");
          goto done;
        }
        auto snap = session->snapshot();
        if (!snap) {
          if (!send_error(ErrorCode::kSessionPoisoned, snap.error())) goto done;
          break;
        }
        std::ostringstream csv;
        try {
          analyzer::write_site_csv(csv, *snap->analysis, session->header().modules);
        } catch (const std::exception& e) {
          if (!send_error(ErrorCode::kInternal,
                          std::string("snapshot generation failed: ") + e.what())) {
            goto done;
          }
          break;
        }
        std::string reply;
        encode_snapshot_data(reply, SnapshotData{snap->epoch, snap->events, csv.str()});
        if (!send(FrameType::kSnapshotData, reply)) goto done;
        break;
      }

      case FrameType::kStats: {
        if (!payload.empty()) {
          (void)send_error(ErrorCode::kMalformedFrame, "STATS carries no payload");
          goto done;
        }
        const SessionStats stats = session->stats();
        StatsData out;
        out.session_id = stats.session_id;
        out.epoch = stats.epoch;
        out.blocks_accepted = stats.blocks_accepted;
        out.blocks_dropped = stats.blocks_dropped;
        out.events_seen = stats.events_seen;
        out.events_declared = stats.events_declared;
        out.queue_depth = stats.queue_depth;
        out.attached_clients = stats.attached_clients;
        out.poisoned = stats.error.empty() ? 0 : 1;
        out.error = stats.error;
        std::string reply;
        encode_stats_data(reply, out);
        if (!send(FrameType::kStatsData, reply)) goto done;
        break;
      }

      case FrameType::kBye: {
        auto msg = decode_bye(payload);
        if (!msg) {
          (void)send_error(ErrorCode::kMalformedFrame, msg.error());
          goto done;
        }
        // Retire before acknowledging: when BYE_OK reaches the client
        // the session id is already gone from the registry, so a
        // follow-up attach can never race the close.
        if ((msg->flags & Bye::kCloseSession) != 0) {
          const std::uint64_t id = session->id();
          session->detach();
          session.reset();
          sessions_->erase(id);
        }
        std::string reply;
        encode_bye(reply, Bye{});  // BYE_OK carries the same (empty-flags) shape
        (void)send(FrameType::kByeOk, reply);
        goto done;
      }

      default:
        break;  // unreachable: filtered above
    }
  }
done:
  if (session != nullptr) session->detach();
}

}  // namespace ecohmem::serve
