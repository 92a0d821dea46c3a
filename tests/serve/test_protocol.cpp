// Wire-codec contract of the ecohmem-serve protocol (docs/serving.md):
// every payload round-trips bit-exactly, every strict prefix of a valid
// frame is rejected (the truncation sweep), and garbled payloads fail
// to decode instead of misparsing — the same salvage posture the trace
// codec has, one layer up.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "ecohmem/serve/protocol.hpp"

namespace ecohmem::serve {
namespace {

std::string frame_of(FrameType type, const std::string& payload) {
  std::string out;
  append_frame(out, type, payload);
  return out;
}

Expected<Frame> parse_all(const std::string& bytes,
                          std::uint32_t max_frame = kDefaultMaxFrameBytes) {
  std::size_t consumed = 0;
  auto frame = parse_frame(reinterpret_cast<const unsigned char*>(bytes.data()),
                           bytes.size(), &consumed, max_frame);
  if (frame) EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(ServeProtocol, FrameEnvelopeRoundTrip) {
  const std::string payload = "hello payload \x01\x02\xff";
  const std::string bytes = frame_of(FrameType::kIngestBlock, payload);
  ASSERT_EQ(bytes.size(), 4 + 1 + payload.size());
  const auto frame = parse_all(bytes);
  ASSERT_TRUE(frame.has_value()) << frame.error();
  EXPECT_EQ(frame->type, FrameType::kIngestBlock);
  EXPECT_EQ(frame->payload, payload);
}

TEST(ServeProtocol, EveryPrefixTruncationIsAnError) {
  // The spec promises: any strict prefix of a valid frame is malformed.
  HelloRequest hello;
  hello.session_id = 42;
  std::string payload;
  encode_hello(payload, hello);
  const std::string bytes = frame_of(FrameType::kHello, payload);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    std::size_t consumed = 0;
    const auto frame = parse_frame(reinterpret_cast<const unsigned char*>(prefix.data()),
                                   prefix.size(), &consumed);
    EXPECT_FALSE(frame.has_value()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(ServeProtocol, ZeroLengthAndOversizeFramesRejected) {
  const std::string zero(4, '\0');  // length = 0
  EXPECT_FALSE(parse_all(zero).has_value());

  std::string big = frame_of(FrameType::kStats, std::string(100, 'x'));
  const auto small_ceiling = parse_all(big, /*max_frame=*/64);
  ASSERT_FALSE(small_ceiling.has_value());
  EXPECT_NE(small_ceiling.error().find("ceiling"), std::string::npos);
}

TEST(ServeProtocol, UnknownFrameTypeRejected) {
  std::string bytes = frame_of(FrameType::kHello, "");
  bytes[4] = '\x7f';  // not a defined type
  const auto frame = parse_all(bytes);
  ASSERT_FALSE(frame.has_value());
  EXPECT_NE(frame.error().find("unknown frame type"), std::string::npos);
}

TEST(ServeProtocol, HelloRoundTrip) {
  HelloRequest msg;
  msg.proto_version = 7;
  msg.session_id = 0;
  msg.header = std::string("\x00\x01header-bytes\xff", 16);
  std::string payload;
  encode_hello(payload, msg);
  const auto back = decode_hello(payload);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back->proto_version, msg.proto_version);
  EXPECT_EQ(back->session_id, msg.session_id);
  EXPECT_EQ(back->flags, msg.flags);
  EXPECT_EQ(back->header, msg.header);
}

TEST(ServeProtocol, HelloAttachWithHeaderRejected) {
  HelloRequest msg;
  msg.session_id = 9;
  msg.header = "stray header";
  std::string payload;
  encode_hello(payload, msg);
  const auto back = decode_hello(payload);
  ASSERT_FALSE(back.has_value());
  EXPECT_NE(back.error().find("attach"), std::string::npos);
}

TEST(ServeProtocol, HelloOkRoundTrip) {
  HelloOk msg;
  msg.proto_version = 1;
  msg.session_id = 0x0123456789abcdefULL;
  msg.epoch = 77;
  msg.max_frame_bytes = 1 << 20;
  msg.queue_blocks = 64;
  std::string payload;
  encode_hello_ok(payload, msg);
  const auto back = decode_hello_ok(payload);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back->session_id, msg.session_id);
  EXPECT_EQ(back->epoch, msg.epoch);
  EXPECT_EQ(back->max_frame_bytes, msg.max_frame_bytes);
  EXPECT_EQ(back->queue_blocks, msg.queue_blocks);
}

TEST(ServeProtocol, IngestBlockRoundTrip) {
  const std::string body("\x01\x00\xfe raw v3 block", 15);
  IngestBlock msg;
  msg.block_seq = 3;
  msg.event_count = 12;
  msg.block = body;
  std::string payload;
  encode_ingest_block(payload, msg);
  const auto back = decode_ingest_block(payload);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back->block_seq, msg.block_seq);
  EXPECT_EQ(back->event_count, msg.event_count);
  EXPECT_EQ(back->block, msg.block);
}

TEST(ServeProtocol, BlockOkAndBusyRoundTrip) {
  BlockOk ok{5, 4096};
  std::string payload;
  encode_block_ok(payload, ok);
  const auto ok_back = decode_block_ok(payload);
  ASSERT_TRUE(ok_back.has_value()) << ok_back.error();
  EXPECT_EQ(ok_back->block_seq, ok.block_seq);
  EXPECT_EQ(ok_back->accepted_events, ok.accepted_events);

  Busy busy{5, 64, 10};
  payload.clear();
  encode_busy(payload, busy);
  const auto busy_back = decode_busy(payload);
  ASSERT_TRUE(busy_back.has_value()) << busy_back.error();
  EXPECT_EQ(busy_back->block_seq, busy.block_seq);
  EXPECT_EQ(busy_back->queue_depth, busy.queue_depth);
  EXPECT_EQ(busy_back->retry_hint_ms, busy.retry_hint_ms);
}

TEST(ServeProtocol, QueryPlacementRoundTrip) {
  QueryPlacement msg;
  msg.flags = QueryPlacement::kBandwidthAware;
  msg.peak_pmem_bw_gbs = 26.5;
  msg.tiers.push_back(QueryTier{"dram", 12ull << 30, 1.0, 0.125, 0});
  msg.tiers.push_back(QueryTier{"pmem", 3ull << 40, 1.0, 0.0, 1});
  std::string payload;
  encode_query_placement(payload, msg);
  const auto back = decode_query_placement(payload);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back->flags, msg.flags);
  EXPECT_EQ(back->peak_pmem_bw_gbs, msg.peak_pmem_bw_gbs);
  ASSERT_EQ(back->tiers.size(), 2u);
  EXPECT_EQ(back->tiers[0].name, "dram");
  EXPECT_EQ(back->tiers[0].limit, msg.tiers[0].limit);
  EXPECT_EQ(back->tiers[0].store_coef, 0.125);
  EXPECT_EQ(back->tiers[1].flags, 1);
}

TEST(ServeProtocol, QueryPlacementConfigConversion) {
  advisor::AdvisorConfig config = advisor::AdvisorConfig::dram_pmem(12ull << 30, 0.125);
  const QueryPlacement msg = QueryPlacement::from_config(config);
  const auto back = msg.to_config();
  ASSERT_TRUE(back.has_value()) << back.error();
  ASSERT_EQ(back->tiers.size(), config.tiers.size());
  for (std::size_t i = 0; i < config.tiers.size(); ++i) {
    EXPECT_EQ(back->tiers[i].name, config.tiers[i].name);
    EXPECT_EQ(back->tiers[i].limit, config.tiers[i].limit);
    EXPECT_EQ(back->tiers[i].load_coef, config.tiers[i].load_coef);
    EXPECT_EQ(back->tiers[i].store_coef, config.tiers[i].store_coef);
    EXPECT_EQ(back->tiers[i].order, config.tiers[i].order);
    EXPECT_EQ(back->tiers[i].fallback, config.tiers[i].fallback);
  }
  EXPECT_EQ(back->footprint_mode, config.footprint_mode);
}

TEST(ServeProtocol, QueryPlacementRejectsBadTierLists) {
  QueryPlacement empty;
  EXPECT_FALSE(empty.to_config().has_value());

  QueryPlacement no_fallback;
  no_fallback.tiers.push_back(QueryTier{"dram", 1 << 20, 1.0, 0.0, 0});
  EXPECT_FALSE(no_fallback.to_config().has_value());

  QueryPlacement two_fallbacks;
  two_fallbacks.tiers.push_back(QueryTier{"a", 1 << 20, 1.0, 0.0, 1});
  two_fallbacks.tiers.push_back(QueryTier{"b", 1 << 20, 1.0, 0.0, 1});
  EXPECT_FALSE(two_fallbacks.to_config().has_value());

  QueryPlacement unnamed;
  unnamed.tiers.push_back(QueryTier{"", 1 << 20, 1.0, 0.0, 1});
  EXPECT_FALSE(unnamed.to_config().has_value());

  // The advisor's own validation applies: names unique, limits positive,
  // coefficients finite and non-negative.
  QueryPlacement duplicate;
  duplicate.tiers.push_back(QueryTier{"dram", 1 << 20, 1.0, 0.0, 0});
  duplicate.tiers.push_back(QueryTier{"dram", 1 << 30, 1.0, 0.0, 1});
  EXPECT_FALSE(duplicate.to_config().has_value());

  QueryPlacement zero_limit;
  zero_limit.tiers.push_back(QueryTier{"dram", 0, 1.0, 0.0, 0});
  zero_limit.tiers.push_back(QueryTier{"pmem", 1 << 30, 1.0, 0.0, 1});
  EXPECT_FALSE(zero_limit.to_config().has_value());

  QueryPlacement nan_coef;
  nan_coef.tiers.push_back(
      QueryTier{"dram", 1 << 20, std::numeric_limits<double>::quiet_NaN(), 0.0, 0});
  nan_coef.tiers.push_back(QueryTier{"pmem", 1 << 30, 1.0, 0.0, 1});
  const auto rejected = nan_coef.to_config();
  ASSERT_FALSE(rejected.has_value());
  EXPECT_NE(rejected.error().find("load_coef"), std::string::npos) << rejected.error();
}

TEST(ServeProtocol, ReportAndSnapshotRoundTrip) {
  Report rep{9, 1234, "# placement\nA -> dram\n"};
  std::string payload;
  encode_report(payload, rep);
  const auto rep_back = decode_report(payload);
  ASSERT_TRUE(rep_back.has_value()) << rep_back.error();
  EXPECT_EQ(rep_back->epoch, rep.epoch);
  EXPECT_EQ(rep_back->events_analyzed, rep.events_analyzed);
  EXPECT_EQ(rep_back->text, rep.text);

  SnapshotData snap{9, 1234, "stack,site\n"};
  payload.clear();
  encode_snapshot_data(payload, snap);
  const auto snap_back = decode_snapshot_data(payload);
  ASSERT_TRUE(snap_back.has_value()) << snap_back.error();
  EXPECT_EQ(snap_back->epoch, snap.epoch);
  EXPECT_EQ(snap_back->csv, snap.csv);
}

TEST(ServeProtocol, StatsDataRoundTrip) {
  StatsData msg;
  msg.session_id = 4;
  msg.epoch = 10;
  msg.blocks_accepted = 11;
  msg.blocks_dropped = 2;
  msg.events_seen = 5000;
  msg.events_declared = 5200;
  msg.queue_depth = 3;
  msg.attached_clients = 2;
  msg.poisoned = 1;
  msg.error = "double free of object id 7";
  std::string payload;
  encode_stats_data(payload, msg);
  const auto back = decode_stats_data(payload);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back->session_id, msg.session_id);
  EXPECT_EQ(back->blocks_dropped, msg.blocks_dropped);
  EXPECT_EQ(back->events_declared, msg.events_declared);
  EXPECT_EQ(back->queue_depth, msg.queue_depth);
  EXPECT_EQ(back->poisoned, msg.poisoned);
  EXPECT_EQ(back->error, msg.error);
}

TEST(ServeProtocol, ByeAndErrorRoundTrip) {
  Bye bye{Bye::kCloseSession};
  std::string payload;
  encode_bye(payload, bye);
  const auto bye_back = decode_bye(payload);
  ASSERT_TRUE(bye_back.has_value()) << bye_back.error();
  EXPECT_EQ(bye_back->flags, bye.flags);

  ErrorReply err{ErrorCode::kBadBlock, "block has 3 trailing bytes"};
  payload.clear();
  encode_error(payload, err);
  const auto err_back = decode_error(payload);
  ASSERT_TRUE(err_back.has_value()) << err_back.error();
  EXPECT_EQ(err_back->code, err.code);
  EXPECT_EQ(err_back->detail, err.detail);
}

TEST(ServeProtocol, PayloadTruncationSweep) {
  // Chop every encoded payload at every byte: decoders must fail (or,
  // where a prefix happens to be self-delimiting, never misparse into
  // success with trailing garbage — trailing bytes are also rejected).
  StatsData stats;
  stats.session_id = 1;
  stats.error = "err";
  std::string payload;
  encode_stats_data(payload, stats);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_stats_data(payload.substr(0, cut)).has_value())
        << "stats prefix " << cut;
  }
  HelloOk hello_ok;
  payload.clear();
  encode_hello_ok(payload, hello_ok);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_hello_ok(payload.substr(0, cut)).has_value())
        << "hello_ok prefix " << cut;
  }
}

TEST(ServeProtocol, TrailingBytesRejected) {
  HelloOk msg;
  std::string payload;
  encode_hello_ok(payload, msg);
  payload.push_back('\x00');
  EXPECT_FALSE(decode_hello_ok(payload).has_value());

  Bye bye;
  payload.clear();
  encode_bye(payload, bye);
  payload += "xx";
  EXPECT_FALSE(decode_bye(payload).has_value());
}

TEST(ServeProtocol, TypeAndErrorCodeNames) {
  EXPECT_STREQ(to_string(FrameType::kHello), "HELLO");
  EXPECT_STREQ(to_string(FrameType::kBusy), "BUSY");
  EXPECT_STREQ(to_string(static_cast<FrameType>(0x55)), "?");
  EXPECT_STREQ(to_string(ErrorCode::kBadBlock), "bad-block");
  EXPECT_STREQ(to_string(ErrorCode::kShuttingDown), "shutting-down");
  EXPECT_STREQ(to_string(static_cast<ErrorCode>(999)), "?");
}

}  // namespace
}  // namespace ecohmem::serve
