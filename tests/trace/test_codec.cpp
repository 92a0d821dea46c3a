// Contract of the compact event decoder (docs/trace_format.md). `decode_compact_events` must return the encoded
// events bitwise for every event kind mix and size, and on corrupt or
// truncated input either decode cleanly or fail with an error whose
// offset lies inside the stream, never reading past it.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::trace::codec {
namespace {

// Deterministic splitmix64 so the value distribution (and therefore the
// varint widths the decoder sees) is reproducible.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Events cycling through all five kinds with field widths spanning
// 1-byte to 10-byte varints and full-width doubles.
std::vector<Event> synth_events(std::size_t n, std::uint64_t seed,
                                std::uint32_t stack_count) {
  std::vector<Event> events;
  events.reserve(n);
  Ns t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Delta width varies from 0 to ~2^40 so streams mix short and long
    // varints; occasional zero keeps the repeated-timestamp path hot.
    t += mix(seed) >> (8 + (i % 5) * 8);
    switch (i % 5) {
      case 0:
        events.emplace_back(AllocEvent{t, mix(seed), mix(seed) >> (i % 64),
                                       mix(seed) >> 20,
                                       static_cast<StackId>(mix(seed) % stack_count),
                                       static_cast<AllocKind>(mix(seed) % 4)});
        break;
      case 1:
        events.emplace_back(FreeEvent{t, mix(seed) >> (i % 48)});
        break;
      case 2:
        events.emplace_back(SampleEvent{t, mix(seed) >> (i % 16),
                                        std::bit_cast<double>(mix(seed) >> 12),
                                        static_cast<double>(mix(seed) % 100'000),
                                        (mix(seed) & 1) != 0,
                                        static_cast<std::uint32_t>(mix(seed) % 64)});
        break;
      case 3:
        events.emplace_back(MarkerEvent{t, static_cast<std::uint32_t>(mix(seed) % 64),
                                        (mix(seed) & 1) != 0});
        break;
      default:
        events.emplace_back(UncoreBwEvent{t, mix(seed) >> 40,
                                          static_cast<double>(mix(seed)) * 1e-18,
                                          static_cast<double>(mix(seed)) * 1e-18});
        break;
    }
  }
  return events;
}

std::string encode_stream(const std::vector<Event>& events) {
  std::string out;
  Ns last = 0;
  for (const Event& e : events) encode_event_compact(out, e, last);
  return out;
}

// Bitwise comparison: doubles compare by bit pattern, not by value, so a
// quiet-NaN payload or signed zero surviving the codec is part of the
// contract.
::testing::AssertionResult events_bitwise_equal(const Event& a, const Event& b) {
  if (a.index() != b.index()) {
    return ::testing::AssertionFailure() << "kind " << a.index() << " vs " << b.index();
  }
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  if (const auto* x = std::get_if<AllocEvent>(&a)) {
    const auto& y = std::get<AllocEvent>(b);
    if (x->time == y.time && x->object_id == y.object_id && x->address == y.address &&
        x->size == y.size && x->stack == y.stack && x->kind == y.kind) {
      return ::testing::AssertionSuccess();
    }
  } else if (const auto* x2 = std::get_if<FreeEvent>(&a)) {
    const auto& y = std::get<FreeEvent>(b);
    if (x2->time == y.time && x2->object_id == y.object_id) {
      return ::testing::AssertionSuccess();
    }
  } else if (const auto* x3 = std::get_if<SampleEvent>(&a)) {
    const auto& y = std::get<SampleEvent>(b);
    if (x3->time == y.time && x3->address == y.address &&
        bits(x3->weight) == bits(y.weight) && bits(x3->latency_ns) == bits(y.latency_ns) &&
        x3->is_store == y.is_store && x3->function_id == y.function_id) {
      return ::testing::AssertionSuccess();
    }
  } else if (const auto* x4 = std::get_if<MarkerEvent>(&a)) {
    const auto& y = std::get<MarkerEvent>(b);
    if (x4->time == y.time && x4->function_id == y.function_id &&
        x4->is_enter == y.is_enter) {
      return ::testing::AssertionSuccess();
    }
  } else if (const auto* x5 = std::get_if<UncoreBwEvent>(&a)) {
    const auto& y = std::get<UncoreBwEvent>(b);
    if (x5->time == y.time && x5->period_ns == y.period_ns &&
        bits(x5->read_gbs) == bits(y.read_gbs) && bits(x5->write_gbs) == bits(y.write_gbs)) {
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure() << "field mismatch in kind " << a.index();
}

constexpr std::uint32_t kStacks = 32;

struct Decoded {
  Status status;
  std::vector<Event> events;
  Ns last_time = 0;
  std::size_t remaining = 0;  ///< bytes left after the decode
};

// Decodes `n` events from an exact-size heap copy of `bytes`, so that
// AddressSanitizer reports any read past the stream's end.
Decoded decode_copy(const std::string& bytes, std::size_t n) {
  const auto copy = std::make_unique<unsigned char[]>(bytes.size());
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  ByteReader src(copy.get(), bytes.size(), 0);
  Decoded d;
  d.events.resize(n);
  d.status = decode_compact_events(src, kStacks, d.last_time, d.events.data(), n);
  d.remaining = src.remaining();
  return d;
}

// A failed decode must name an offset at most the stream's end
// ("... at offset K").
::testing::AssertionResult error_offset_inside(const Status& st, std::size_t size) {
  const std::string& msg = st.error();
  const auto at = msg.rfind(" at offset ");
  if (at == std::string::npos) return ::testing::AssertionFailure() << "no offset: " << msg;
  const std::uint64_t offset = std::stoull(msg.substr(at + 11));
  if (offset > size) {
    return ::testing::AssertionFailure() << msg << " lies past the " << size << "-byte stream";
  }
  return ::testing::AssertionSuccess();
}

TEST(CompactDecode, RoundTripsBitwiseAtEverySize) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 24u, 64u, 64u + 1u, 64u + 2u,
                              64u + 3u, 64u + 4u, 64u + 5u, 64u + 6u, 64u + 7u, 257u}) {
    const std::vector<Event> events = synth_events(n, 0xA11CEull + n, kStacks);
    const std::string bytes = encode_stream(events);
    const Decoded d = decode_copy(bytes, n);
    ASSERT_TRUE(d.status.ok()) << "n=" << n << ": " << d.status.error();
    EXPECT_EQ(d.remaining, 0u) << "n=" << n;
    EXPECT_EQ(d.last_time, n == 0 ? Ns{0} : event_time(events.back())) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(events_bitwise_equal(d.events[i], events[i])) << "n=" << n << " event " << i;
    }
  }
}

TEST(CompactDecode, SingleKindStreamsRoundTrip) {
  for (std::size_t kind = 0; kind < 5; ++kind) {
    std::vector<Event> events;
    const std::vector<Event> pool = synth_events(5 * 40, 0xBEEF + kind, kStacks);
    for (const Event& e : pool) {
      if (e.index() == kind) events.push_back(e);
    }
    ASSERT_EQ(events.size(), 40u);
    const Decoded d = decode_copy(encode_stream(events), events.size());
    ASSERT_TRUE(d.status.ok()) << "kind " << kind << ": " << d.status.error();
    EXPECT_EQ(d.remaining, 0u);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(events_bitwise_equal(d.events[i], events[i]))
          << "kind " << kind << " event " << i;
    }
  }
}

TEST(CompactDecode, CorruptOrTruncatedStreamsFailInsideTheStream) {
  // Flip every byte of the stream in turn, then cut it at every length:
  // each decode either yields n events or fails at an offset inside the
  // stream. The copies are exact-size, so a read past the end is an
  // AddressSanitizer report under the asan-ubsan preset.
  const std::size_t n = 48;
  const std::vector<Event> events = synth_events(n, 0xC0DE, kStacks);
  const std::string clean = encode_stream(events);
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    std::string bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x80);
    const Decoded d = decode_copy(bytes, n);
    if (!d.status.ok()) {
      EXPECT_TRUE(error_offset_inside(d.status, bytes.size())) << "flip at " << pos;
    }
  }
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const Decoded d = decode_copy(clean.substr(0, len), n);
    ASSERT_FALSE(d.status.ok()) << "prefix " << len << " decoded " << n << " events";
    EXPECT_TRUE(error_offset_inside(d.status, len)) << "prefix " << len;
  }
}

}  // namespace
}  // namespace ecohmem::trace::codec
