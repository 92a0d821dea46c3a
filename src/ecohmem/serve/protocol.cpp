#include "ecohmem/serve/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "ecohmem/trace/codec.hpp"

namespace ecohmem::serve {

namespace codec = trace::codec;

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kIngestBlock: return "INGEST_BLOCK";
    case FrameType::kQueryPlacement: return "QUERY_PLACEMENT";
    case FrameType::kSnapshot: return "SNAPSHOT";
    case FrameType::kStats: return "STATS";
    case FrameType::kBye: return "BYE";
    case FrameType::kHelloOk: return "HELLO_OK";
    case FrameType::kBlockOk: return "BLOCK_OK";
    case FrameType::kReport: return "REPORT";
    case FrameType::kSnapshotData: return "SNAPSHOT_DATA";
    case FrameType::kStatsData: return "STATS_DATA";
    case FrameType::kByeOk: return "BYE_OK";
    case FrameType::kError: return "ERROR";
    case FrameType::kBusy: return "BUSY";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kBadSequence: return "bad-sequence";
    case ErrorCode::kBadBlock: return "bad-block";
    case ErrorCode::kSessionPoisoned: return "session-poisoned";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kFrameTooLarge: return "frame-too-large";
    case ErrorCode::kNoSuchSession: return "no-such-session";
    case ErrorCode::kBadConfig: return "bad-config";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

[[nodiscard]] bool known_frame_type(std::uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kHello:
    case FrameType::kIngestBlock:
    case FrameType::kQueryPlacement:
    case FrameType::kSnapshot:
    case FrameType::kStats:
    case FrameType::kBye:
    case FrameType::kHelloOk:
    case FrameType::kBlockOk:
    case FrameType::kReport:
    case FrameType::kSnapshotData:
    case FrameType::kStatsData:
    case FrameType::kByeOk:
    case FrameType::kError:
    case FrameType::kBusy:
      return true;
  }
  return false;
}

/// Reader over a payload string; all payload decoders funnel through
/// this so short payloads and trailing bytes fail uniformly.
[[nodiscard]] codec::ByteReader payload_reader(const std::string& payload) {
  return codec::ByteReader(reinterpret_cast<const unsigned char*>(payload.data()),
                           payload.size(), 0);
}

[[nodiscard]] Unexpected short_payload(const char* frame) {
  return unexpected(std::string("truncated ") + frame + " payload");
}

[[nodiscard]] Unexpected trailing_bytes(const char* frame) {
  return unexpected(std::string(frame) + " payload has trailing bytes");
}

}  // namespace

void append_frame(std::string& out, FrameType type, std::string_view payload) {
  codec::put(out, static_cast<std::uint32_t>(payload.size() + 1));
  codec::put(out, static_cast<std::uint8_t>(type));
  out.append(payload);
}

Expected<Frame> parse_frame(const unsigned char* data, std::size_t size, std::size_t* consumed,
                            std::uint32_t max_frame_bytes) {
  if (size < sizeof(std::uint32_t)) return unexpected("truncated frame length");
  std::uint32_t length = 0;
  std::memcpy(&length, data, sizeof(length));
  if (length == 0) return unexpected("zero-length frame");
  if (length > max_frame_bytes) {
    return unexpected("frame length " + std::to_string(length) + " exceeds the ceiling " +
                      std::to_string(max_frame_bytes));
  }
  if (size - sizeof(length) < length) return unexpected("truncated frame body");
  const std::uint8_t raw_type = data[sizeof(length)];
  if (!known_frame_type(raw_type)) {
    return unexpected("unknown frame type " + std::to_string(raw_type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload.assign(reinterpret_cast<const char*>(data) + sizeof(length) + 1, length - 1);
  if (consumed != nullptr) *consumed = sizeof(length) + length;
  return frame;
}

// ---------------------------------------------------------------------
// HELLO

void encode_hello(std::string& out, const HelloRequest& msg) {
  codec::put(out, msg.proto_version);
  codec::put(out, msg.session_id);
  codec::put(out, msg.flags);
  out.append(msg.header);
}

Expected<HelloRequest> decode_hello(const std::string& payload) {
  auto r = payload_reader(payload);
  HelloRequest msg;
  if (!r.get(msg.proto_version) || !r.get(msg.session_id) || !r.get(msg.flags)) {
    return short_payload("HELLO");
  }
  msg.header.assign(payload, payload.size() - r.remaining(), r.remaining());
  if (msg.session_id != 0 && !msg.header.empty()) {
    return unexpected("HELLO attach carries a trace header");
  }
  return msg;
}

// ---------------------------------------------------------------------
// HELLO_OK

void encode_hello_ok(std::string& out, const HelloOk& msg) {
  codec::put(out, msg.proto_version);
  codec::put(out, msg.session_id);
  codec::put(out, msg.epoch);
  codec::put(out, msg.max_frame_bytes);
  codec::put(out, msg.queue_blocks);
}

Expected<HelloOk> decode_hello_ok(const std::string& payload) {
  auto r = payload_reader(payload);
  HelloOk msg;
  if (!r.get(msg.proto_version) || !r.get(msg.session_id) || !r.get(msg.epoch) ||
      !r.get(msg.max_frame_bytes) || !r.get(msg.queue_blocks)) {
    return short_payload("HELLO_OK");
  }
  if (r.remaining() != 0) return trailing_bytes("HELLO_OK");
  return msg;
}

// ---------------------------------------------------------------------
// INGEST_BLOCK

void encode_ingest_block(std::string& out, const IngestBlock& msg) {
  codec::put(out, msg.block_seq);
  codec::put(out, msg.event_count);
  out.append(msg.block);
}

Expected<IngestBlock> decode_ingest_block(const std::string& payload) {
  auto r = payload_reader(payload);
  IngestBlock msg;
  if (!r.get(msg.block_seq) || !r.get(msg.event_count)) {
    return short_payload("INGEST_BLOCK");
  }
  msg.block.assign(payload, payload.size() - r.remaining(), r.remaining());
  return msg;
}

// ---------------------------------------------------------------------
// BLOCK_OK / BUSY

void encode_block_ok(std::string& out, const BlockOk& msg) {
  codec::put(out, msg.block_seq);
  codec::put(out, msg.accepted_events);
}

Expected<BlockOk> decode_block_ok(const std::string& payload) {
  auto r = payload_reader(payload);
  BlockOk msg;
  if (!r.get(msg.block_seq) || !r.get(msg.accepted_events)) return short_payload("BLOCK_OK");
  if (r.remaining() != 0) return trailing_bytes("BLOCK_OK");
  return msg;
}

void encode_busy(std::string& out, const Busy& msg) {
  codec::put(out, msg.block_seq);
  codec::put(out, msg.queue_depth);
  codec::put(out, msg.retry_hint_ms);
}

Expected<Busy> decode_busy(const std::string& payload) {
  auto r = payload_reader(payload);
  Busy msg;
  if (!r.get(msg.block_seq) || !r.get(msg.queue_depth) || !r.get(msg.retry_hint_ms)) {
    return short_payload("BUSY");
  }
  if (r.remaining() != 0) return trailing_bytes("BUSY");
  return msg;
}

// ---------------------------------------------------------------------
// QUERY_PLACEMENT

void encode_query_placement(std::string& out, const QueryPlacement& msg) {
  codec::put(out, msg.flags);
  codec::put(out, msg.peak_pmem_bw_gbs);
  codec::put(out, static_cast<std::uint8_t>(msg.tiers.size()));
  for (const auto& tier : msg.tiers) {
    codec::put_string(out, tier.name);
    codec::put(out, tier.limit);
    codec::put(out, tier.load_coef);
    codec::put(out, tier.store_coef);
    codec::put(out, tier.flags);
  }
}

Expected<QueryPlacement> decode_query_placement(const std::string& payload) {
  auto r = payload_reader(payload);
  QueryPlacement msg;
  std::uint8_t tier_count = 0;
  if (!r.get(msg.flags) || !r.get(msg.peak_pmem_bw_gbs) || !r.get(tier_count)) {
    return short_payload("QUERY_PLACEMENT");
  }
  msg.tiers.reserve(tier_count);
  for (std::uint8_t i = 0; i < tier_count; ++i) {
    QueryTier tier;
    if (!r.get_string(tier.name) || !r.get(tier.limit) || !r.get(tier.load_coef) ||
        !r.get(tier.store_coef) || !r.get(tier.flags)) {
      return short_payload("QUERY_PLACEMENT tier");
    }
    msg.tiers.push_back(std::move(tier));
  }
  if (r.remaining() != 0) return trailing_bytes("QUERY_PLACEMENT");
  return msg;
}

Expected<advisor::AdvisorConfig> QueryPlacement::to_config() const {
  advisor::AdvisorConfig config;
  config.footprint_mode = (flags & kFootprintMaxSize) != 0
                              ? advisor::FootprintMode::kMaxSize
                              : advisor::FootprintMode::kPeakLive;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const QueryTier& t = tiers[i];
    config.tiers.push_back(advisor::TierPolicy{t.name, t.limit, t.load_coef, t.store_coef,
                                               static_cast<int>(i), (t.flags & 1u) != 0});
  }
  if (const auto violations = config.validate(); !violations.empty()) {
    return unexpected("query: " + violations.front());
  }
  return config;
}

QueryPlacement QueryPlacement::from_config(const advisor::AdvisorConfig& config) {
  QueryPlacement msg;
  if (config.footprint_mode == advisor::FootprintMode::kMaxSize) {
    msg.flags |= kFootprintMaxSize;
  }
  for (const auto& tier : config.tiers) {
    QueryTier row;
    row.name = tier.name;
    row.limit = tier.limit;
    row.load_coef = tier.load_coef;
    row.store_coef = tier.store_coef;
    row.flags = tier.fallback ? 1 : 0;
    msg.tiers.push_back(std::move(row));
  }
  return msg;
}

// ---------------------------------------------------------------------
// REPORT / SNAPSHOT_DATA

void encode_report(std::string& out, const Report& msg) {
  codec::put(out, msg.epoch);
  codec::put(out, msg.events_analyzed);
  out.append(msg.text);
}

Expected<Report> decode_report(const std::string& payload) {
  auto r = payload_reader(payload);
  Report msg;
  if (!r.get(msg.epoch) || !r.get(msg.events_analyzed)) return short_payload("REPORT");
  msg.text.assign(payload, payload.size() - r.remaining(), r.remaining());
  return msg;
}

void encode_snapshot_data(std::string& out, const SnapshotData& msg) {
  codec::put(out, msg.epoch);
  codec::put(out, msg.events_analyzed);
  out.append(msg.csv);
}

Expected<SnapshotData> decode_snapshot_data(const std::string& payload) {
  auto r = payload_reader(payload);
  SnapshotData msg;
  if (!r.get(msg.epoch) || !r.get(msg.events_analyzed)) return short_payload("SNAPSHOT_DATA");
  msg.csv.assign(payload, payload.size() - r.remaining(), r.remaining());
  return msg;
}

// ---------------------------------------------------------------------
// STATS_DATA

void encode_stats_data(std::string& out, const StatsData& msg) {
  codec::put(out, msg.session_id);
  codec::put(out, msg.epoch);
  codec::put(out, msg.blocks_accepted);
  codec::put(out, msg.blocks_dropped);
  codec::put(out, msg.events_seen);
  codec::put(out, msg.events_declared);
  codec::put(out, msg.queue_depth);
  codec::put(out, msg.attached_clients);
  codec::put(out, msg.poisoned);
  codec::put_string(out, msg.error);
}

Expected<StatsData> decode_stats_data(const std::string& payload) {
  auto r = payload_reader(payload);
  StatsData msg;
  if (!r.get(msg.session_id) || !r.get(msg.epoch) || !r.get(msg.blocks_accepted) ||
      !r.get(msg.blocks_dropped) || !r.get(msg.events_seen) || !r.get(msg.events_declared) ||
      !r.get(msg.queue_depth) || !r.get(msg.attached_clients) || !r.get(msg.poisoned) ||
      !r.get_string(msg.error)) {
    return short_payload("STATS_DATA");
  }
  if (r.remaining() != 0) return trailing_bytes("STATS_DATA");
  return msg;
}

// ---------------------------------------------------------------------
// BYE / ERROR

void encode_bye(std::string& out, const Bye& msg) { codec::put(out, msg.flags); }

Expected<Bye> decode_bye(const std::string& payload) {
  auto r = payload_reader(payload);
  Bye msg;
  if (!r.get(msg.flags)) return short_payload("BYE");
  if (r.remaining() != 0) return trailing_bytes("BYE");
  return msg;
}

void encode_error(std::string& out, const ErrorReply& msg) {
  codec::put(out, static_cast<std::uint16_t>(msg.code));
  codec::put_string(out, msg.detail);
}

Expected<ErrorReply> decode_error(const std::string& payload) {
  auto r = payload_reader(payload);
  std::uint16_t code = 0;
  ErrorReply msg;
  if (!r.get(code) || !r.get_string(msg.detail)) return short_payload("ERROR");
  if (r.remaining() != 0) return trailing_bytes("ERROR");
  msg.code = static_cast<ErrorCode>(code);
  return msg;
}

}  // namespace ecohmem::serve
