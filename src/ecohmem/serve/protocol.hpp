#pragma once

/// \file protocol.hpp
/// Wire protocol of the `ecohmem-serve` daemon — the byte-level codec
/// behind docs/serving.md, which is the normative spec (frame layout
/// tables, state machine, error semantics). Keep the two in sync.
///
/// Every frame is a little-endian length-prefixed envelope:
///
///     u32 length   — bytes that follow (type + payload), >= 1
///     u8  type     — FrameType
///     u8[length-1] — payload, layout per type
///
/// Payloads reuse the trace codec primitives (trace/codec.hpp): fixed
/// little-endian scalars via `codec::put`, length-prefixed strings via
/// `codec::put_string`. The HELLO payload embeds a verbatim v3 trace
/// header (`codec::encode_header`) and INGEST_BLOCK carries a verbatim
/// v3 event block (compact codec, per-block delta base 0) — a daemon
/// session speaks the same bytes a v3 trace file stores.
///
/// Decoders are strict: unknown types, short payloads and trailing
/// bytes are all `kMalformedFrame`-class errors. The *server* is
/// salvage-tolerant one level up — a bad INGEST_BLOCK body drops the
/// block and degrades coverage instead of killing the session
/// (docs/serving.md §errors).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::serve {

/// Protocol revision negotiated in HELLO. Bumped on any incompatible
/// frame-layout change.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Default ceiling on `length` (type byte + payload). Frames above the
/// negotiated ceiling are rejected with `kFrameTooLarge`.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// Frame types. Client-to-server types have the high bit clear,
/// server-to-client replies have it set; 0xE0+ are error-channel
/// replies valid in any state.
enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,           ///< open/attach a session (first frame, exactly once)
  kIngestBlock = 0x02,     ///< one v3 event block for the session store
  kQueryPlacement = 0x03,  ///< run the Advisor against a snapshot
  kSnapshot = 0x04,        ///< fetch the per-site CSV of a snapshot
  kStats = 0x05,           ///< session/ingest counters
  kBye = 0x06,             ///< orderly close
  // server -> client
  kHelloOk = 0x81,       ///< session opened/attached
  kBlockOk = 0x82,       ///< block accepted into the ingest queue
  kReport = 0x83,        ///< placement report text
  kSnapshotData = 0x84,  ///< per-site CSV text
  kStatsData = 0x85,     ///< counters
  kByeOk = 0x86,         ///< goodbye acknowledged, server closes after
  kError = 0xE0,         ///< ErrorReply payload
  kBusy = 0xE1,          ///< ingest queue full — backpressure, resend later
};

/// `FrameType` name for diagnostics ("HELLO", "BLOCK_OK", ...);
/// "?" for unknown values.
[[nodiscard]] const char* to_string(FrameType type);

/// Error codes carried by `kError` replies (docs/serving.md lists the
/// close-vs-continue behavior per code).
enum class ErrorCode : std::uint16_t {
  kMalformedFrame = 1,   ///< envelope/payload undecodable — connection closes
  kUnknownType = 2,      ///< unrecognized frame type — connection closes
  kBadSequence = 3,      ///< frame illegal in this session state — connection closes
  kBadBlock = 4,         ///< INGEST_BLOCK body undecodable — block dropped, session continues
  kSessionPoisoned = 5,  ///< session store hit a semantic error; queries keep failing
  kShuttingDown = 6,     ///< daemon draining — connection closes after this reply
  kFrameTooLarge = 7,    ///< length exceeds the negotiated ceiling — connection closes
  kNoSuchSession = 8,    ///< HELLO attach to an unknown session id — connection closes
  kBadConfig = 9,        ///< QUERY_PLACEMENT tier list invalid — session continues
  kInternal = 10,        ///< unexpected server-side failure
};

/// Stable token for an error code ("malformed-frame", ...), used in
/// logs and docs/serving.md.
[[nodiscard]] const char* to_string(ErrorCode code);

/// A parsed frame: type + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Appends the framed envelope (length, type, payload) to `out`.
void append_frame(std::string& out, FrameType type, std::string_view payload);

/// Parses one complete frame from the front of `data`. Fails on short
/// buffers (any strict prefix of a valid frame is an error), zero
/// lengths, and lengths above `max_frame_bytes`. On success
/// `*consumed` is the envelope size in bytes.
[[nodiscard]] Expected<Frame> parse_frame(const unsigned char* data, std::size_t size,
                                          std::size_t* consumed,
                                          std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

// ---------------------------------------------------------------------
// Payload structs + codecs. Every decode_* rejects trailing bytes.
// Decoders read a view of the payload, so the server decodes straight
// from the received frame body.

/// HELLO payload. `session_id` 0 opens a new session, in which case
/// `header` must hold a v3 trace header (`codec::encode_header` bytes,
/// event count 0); nonzero attaches to an existing session and the
/// header must be absent.
struct HelloRequest {
  std::uint32_t proto_version = kProtocolVersion;
  std::uint64_t session_id = 0;
  std::uint32_t flags = 0;  ///< reserved, must be 0
  std::string header;       ///< v3 header blob (create only)
};

/// HELLO_OK payload: the negotiated session parameters.
struct HelloOk {
  std::uint32_t proto_version = kProtocolVersion;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;  ///< blocks applied so far (0 for a fresh session)
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::uint32_t queue_blocks = 0;  ///< ingest queue bound (backpressure point)
};

/// INGEST_BLOCK payload: one independently decodable event block. The
/// block body is the payload's tail, so a sender may encode the header
/// with an empty `block` and append the compact events after it.
struct IngestBlock {
  std::uint64_t block_seq = 0;    ///< per-connection, starts at 0, +1 each block
  std::uint64_t event_count = 0;  ///< events encoded in `block`
  /// v3 block body (compact events, delta base 0). Decoding leaves a
  /// view into the decoded payload; it lives no longer than that.
  std::string_view block;
};

/// BLOCK_OK payload: the block was accepted into the ingest queue.
struct BlockOk {
  std::uint64_t block_seq = 0;
  std::uint64_t accepted_events = 0;
};

/// BUSY payload: the ingest queue was full; the block was **not**
/// accepted and must be resent after backing off.
struct Busy {
  std::uint64_t block_seq = 0;
  std::uint32_t queue_depth = 0;    ///< configured bound that was hit
  std::uint32_t retry_hint_ms = 0;  ///< suggested client backoff
};

/// One tier row of a QUERY_PLACEMENT (mirrors advisor::TierPolicy; the
/// fill order is the row position).
struct QueryTier {
  std::string name;
  std::uint64_t limit = 0;
  double load_coef = 1.0;
  double store_coef = 0.0;
  std::uint8_t flags = 0;  ///< bit 0: fallback tier
};

/// QUERY_PLACEMENT payload: the Advisor configuration to run against a
/// fresh snapshot of the session store.
struct QueryPlacement {
  /// bit 0: run the §VII bandwidth-aware pass after the knapsack;
  /// bit 1: charge footprints by max_size instead of peak_live.
  std::uint32_t flags = 0;
  /// Peak PMem bandwidth for the region thresholds; 0 = use the
  /// snapshot's observed peak (the offline tool's default). A negative
  /// or non-finite value is a BAD_CONFIG reply.
  double peak_pmem_bw_gbs = 0.0;
  std::vector<QueryTier> tiers;

  static constexpr std::uint32_t kBandwidthAware = 1u << 0;
  static constexpr std::uint32_t kFootprintMaxSize = 1u << 1;

  /// The advisor configuration the tier rows describe; the first
  /// AdvisorConfig::validate violation is the error (`bad-config`).
  [[nodiscard]] Expected<advisor::AdvisorConfig> to_config() const;
  /// Builds the tier rows (and footprint flag) from `config`.
  static QueryPlacement from_config(const advisor::AdvisorConfig& config);
};

/// REPORT payload: the placement report text (BOM format — byte-equal
/// to `ecohmem-advisor --out` on the same events and config).
struct Report {
  std::uint64_t epoch = 0;            ///< snapshot epoch the query ran against
  std::uint64_t events_analyzed = 0;  ///< events folded into that snapshot
  std::string text;
};

/// SNAPSHOT_DATA payload: the per-site CSV of a snapshot.
struct SnapshotData {
  std::uint64_t epoch = 0;
  std::uint64_t events_analyzed = 0;
  std::string csv;
};

/// STATS_DATA payload: session counters (QUERY/SNAPSHOT-independent).
struct StatsData {
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;  ///< blocks applied to the store
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_dropped = 0;  ///< undecodable INGEST_BLOCK bodies
  std::uint64_t events_seen = 0;     ///< events applied to the store
  std::uint64_t events_declared = 0; ///< events clients claimed to send
  std::uint32_t queue_depth = 0;     ///< blocks waiting to be applied
  std::uint32_t attached_clients = 0;
  std::uint8_t poisoned = 0;  ///< 1 after a semantic ingest error
  std::string error;          ///< first ingest error, empty while healthy
};

/// BYE payload.
struct Bye {
  std::uint32_t flags = 0;  ///< bit 0: also retire the session
  static constexpr std::uint32_t kCloseSession = 1u << 0;
};

/// ERROR payload.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string detail;
};

void encode_hello(std::string& out, const HelloRequest& msg);
[[nodiscard]] Expected<HelloRequest> decode_hello(std::string_view payload);

void encode_hello_ok(std::string& out, const HelloOk& msg);
[[nodiscard]] Expected<HelloOk> decode_hello_ok(std::string_view payload);

void encode_ingest_block(std::string& out, const IngestBlock& msg);
[[nodiscard]] Expected<IngestBlock> decode_ingest_block(std::string_view payload);

void encode_block_ok(std::string& out, const BlockOk& msg);
[[nodiscard]] Expected<BlockOk> decode_block_ok(std::string_view payload);

void encode_busy(std::string& out, const Busy& msg);
[[nodiscard]] Expected<Busy> decode_busy(std::string_view payload);

void encode_query_placement(std::string& out, const QueryPlacement& msg);
[[nodiscard]] Expected<QueryPlacement> decode_query_placement(std::string_view payload);

void encode_report(std::string& out, const Report& msg);
[[nodiscard]] Expected<Report> decode_report(std::string_view payload);

void encode_snapshot_data(std::string& out, const SnapshotData& msg);
[[nodiscard]] Expected<SnapshotData> decode_snapshot_data(std::string_view payload);

void encode_stats_data(std::string& out, const StatsData& msg);
[[nodiscard]] Expected<StatsData> decode_stats_data(std::string_view payload);

void encode_bye(std::string& out, const Bye& msg);
[[nodiscard]] Expected<Bye> decode_bye(std::string_view payload);

void encode_error(std::string& out, const ErrorReply& msg);
[[nodiscard]] Expected<ErrorReply> decode_error(std::string_view payload);

}  // namespace ecohmem::serve
