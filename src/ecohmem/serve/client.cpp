#include "ecohmem/serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace ecohmem::serve {
namespace {

std::string format_server_error(const std::string& payload) {
  auto err = decode_error(payload);
  if (!err) return "undecodable ERROR reply: " + err.error();
  return "server error (" + std::string(to_string(err->code)) + "): " + err->detail;
}

}  // namespace

Expected<Client> Client::connect(const std::string& path) {
  auto fd = common::posix::connect_unix(path);
  if (!fd) return unexpected(fd.error());
  return Client(std::move(*fd));
}

Status Client::send_frame(FrameType type, const std::string& payload) {
  std::string out;
  append_frame(out, type, payload);
  return common::posix::send_full(fd_.get(), out.data(), out.size());
}

Status Client::send_raw(const std::string& bytes) {
  return common::posix::send_full(fd_.get(), bytes.data(), bytes.size());
}

Expected<Frame> Client::read_reply() {
  std::uint32_t length = 0;
  auto status = common::posix::read_full(fd_.get(), &length, sizeof(length));
  if (!status.ok()) return unexpected(status.error());
  if (length == 0) return unexpected("server sent a zero-length frame");
  std::string body(length, '\0');
  status = common::posix::read_full(fd_.get(), body.data(), body.size());
  if (!status.ok()) return unexpected(status.error());
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<std::uint8_t>(body[0]));
  frame.payload = body.substr(1);
  return frame;
}

Expected<Frame> Client::round_trip(FrameType type, const std::string& payload,
                                   FrameType expect) {
  auto status = send_frame(type, payload);
  if (!status.ok()) return unexpected(status.error());
  auto reply = read_reply();
  if (!reply) return unexpected(reply.error());
  if (reply->type == FrameType::kError) return unexpected(format_server_error(reply->payload));
  if (reply->type != expect) {
    return unexpected(std::string("unexpected reply ") + to_string(reply->type) + " to " +
                      to_string(type));
  }
  return reply;
}

Status Client::finish_hello(const HelloRequest& request) {
  std::string payload;
  encode_hello(payload, request);
  auto reply = round_trip(FrameType::kHello, payload, FrameType::kHelloOk);
  if (!reply) return unexpected(reply.error());
  auto ok = decode_hello_ok(reply->payload);
  if (!ok) return unexpected(ok.error());
  negotiated_ = *ok;
  session_id_ = ok->session_id;
  next_block_seq_ = 0;
  return {};
}

Status Client::hello_create(const trace::StackTable& stacks,
                            const trace::FunctionTable& functions,
                            const bom::ModuleTable& modules, double sample_rate_hz) {
  HelloRequest request;
  trace::codec::encode_header(request.header, stacks, functions, sample_rate_hz, modules,
                              /*event_count=*/0);
  return finish_hello(request);
}

Status Client::hello_attach(std::uint64_t session_id) {
  HelloRequest request;
  request.session_id = session_id;
  return finish_hello(request);
}

Expected<Client::Ingest> Client::ingest_block_once(const std::vector<trace::Event>& events) {
  IngestBlock msg;
  msg.block_seq = next_block_seq_;
  msg.event_count = events.size();
  std::string payload;
  encode_ingest_block(payload, msg);  // the block body follows in place
  Ns last_time = 0;                   // per-block delta base, like a v3 file block
  for (const auto& event : events) {
    trace::codec::encode_event_compact(payload, event, last_time);
  }
  auto status = send_frame(FrameType::kIngestBlock, payload);
  if (!status.ok()) return unexpected(status.error());
  auto reply = read_reply();
  if (!reply) return unexpected(reply.error());
  switch (reply->type) {
    case FrameType::kBlockOk: {
      auto ok = decode_block_ok(reply->payload);
      if (!ok) return unexpected(ok.error());
      if (ok->block_seq != msg.block_seq) {
        return unexpected("BLOCK_OK for seq " + std::to_string(ok->block_seq) +
                          ", expected " + std::to_string(msg.block_seq));
      }
      ++next_block_seq_;
      return Ingest::kAccepted;
    }
    case FrameType::kBusy: {
      auto busy = decode_busy(reply->payload);
      if (!busy) return unexpected(busy.error());
      last_busy_ = *busy;
      return Ingest::kBusy;
    }
    case FrameType::kError:
      return unexpected(format_server_error(reply->payload));
    default:
      return unexpected(std::string("unexpected reply ") + to_string(reply->type) +
                        " to INGEST_BLOCK");
  }
}

Status Client::ingest_block(const std::vector<trace::Event>& events, std::size_t max_retries) {
  for (std::size_t attempt = 0; attempt <= max_retries; ++attempt) {
    auto outcome = ingest_block_once(events);
    if (!outcome) return unexpected(outcome.error());
    if (*outcome == Ingest::kAccepted) return {};
    const auto hint = std::max<std::uint32_t>(1, last_busy_.retry_hint_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(hint));
  }
  return unexpected("ingest still busy after " + std::to_string(max_retries) + " retries");
}

Status Client::ingest_events(const std::vector<trace::Event>& events,
                             std::size_t block_events) {
  if (block_events == 0) return unexpected("block size must be at least 1 event");
  for (std::size_t begin = 0; begin < events.size(); begin += block_events) {
    const std::size_t end = std::min(events.size(), begin + block_events);
    const std::vector<trace::Event> block(events.begin() + static_cast<std::ptrdiff_t>(begin),
                                          events.begin() + static_cast<std::ptrdiff_t>(end));
    auto status = ingest_block(block);
    if (!status.ok()) return status;
  }
  return {};
}

Expected<Report> Client::query(const advisor::AdvisorConfig& config, bool bandwidth_aware,
                               double peak_pmem_bw_gbs) {
  QueryPlacement msg = QueryPlacement::from_config(config);
  if (bandwidth_aware) msg.flags |= QueryPlacement::kBandwidthAware;
  msg.peak_pmem_bw_gbs = peak_pmem_bw_gbs;
  std::string payload;
  encode_query_placement(payload, msg);
  auto reply = round_trip(FrameType::kQueryPlacement, payload, FrameType::kReport);
  if (!reply) return unexpected(reply.error());
  return decode_report(reply->payload);
}

Expected<SnapshotData> Client::snapshot_csv() {
  auto reply = round_trip(FrameType::kSnapshot, "", FrameType::kSnapshotData);
  if (!reply) return unexpected(reply.error());
  return decode_snapshot_data(reply->payload);
}

Expected<StatsData> Client::stats() {
  auto reply = round_trip(FrameType::kStats, "", FrameType::kStatsData);
  if (!reply) return unexpected(reply.error());
  return decode_stats_data(reply->payload);
}

Status Client::bye(bool close_session) {
  Bye msg;
  if (close_session) msg.flags |= Bye::kCloseSession;
  std::string payload;
  encode_bye(payload, msg);
  auto reply = round_trip(FrameType::kBye, payload, FrameType::kByeOk);
  if (!reply) return unexpected(reply.error());
  fd_.reset();
  return {};
}

}  // namespace ecohmem::serve
