/// \file faultinject.cpp
/// Deterministic fault injection (see faultinject.hpp).

#include "ecohmem/common/faultinject.hpp"

#include <algorithm>
#include <cstring>

#include "ecohmem/common/rng.hpp"

namespace ecohmem::faultinject {

std::vector<unsigned char> apply(const std::vector<unsigned char>& bytes, const Fault& fault) {
  std::vector<unsigned char> out = bytes;
  if (fault.offset >= out.size()) return out;
  switch (fault.kind) {
    case FaultKind::kBitFlip:
      out[static_cast<std::size_t>(fault.offset)] ^=
          static_cast<unsigned char>(1u << (fault.bit & 7u));
      break;
    case FaultKind::kTruncate:
      out.resize(static_cast<std::size_t>(fault.offset));
      break;
    case FaultKind::kGarble: {
      Rng noise(fault.seed ^ 0x9e3779b97f4a7c15ULL);
      const std::size_t end = static_cast<std::size_t>(
          std::min<std::uint64_t>(out.size(), fault.offset + std::max<std::uint64_t>(fault.length, 1)));
      for (std::size_t i = static_cast<std::size_t>(fault.offset); i < end; ++i) {
        out[i] = static_cast<unsigned char>(noise.next_u64() & 0xff);
      }
      break;
    }
  }
  return out;
}

Landmarks landmarks_v3(const std::vector<unsigned char>& bytes, std::uint64_t events_offset) {
  Landmarks lm;
  lm.file_size = bytes.size();
  lm.events_offset = events_offset;
  constexpr std::size_t kTrailer = 24;
  if (bytes.size() < kTrailer) return lm;
  const unsigned char* trailer = bytes.data() + bytes.size() - kTrailer;
  if (std::memcmp(trailer + 16, "ECOHMIDX", 8) != 0) return lm;
  std::uint64_t entry_count = 0;
  std::uint64_t footer_offset = 0;
  std::memcpy(&entry_count, trailer, 8);
  std::memcpy(&footer_offset, trailer + 8, 8);
  lm.trailer_offset = bytes.size() - kTrailer;
  // Divide the span rather than multiply the count: a count with high
  // bits set must not wrap into a match.
  if (footer_offset > lm.trailer_offset) return lm;
  const std::uint64_t index_bytes = lm.trailer_offset - footer_offset;
  if (index_bytes % 24 != 0 || entry_count != index_bytes / 24) return lm;
  lm.footer_offset = footer_offset;
  lm.block_offsets.reserve(static_cast<std::size_t>(entry_count));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    std::uint64_t off = 0;
    std::memcpy(&off, bytes.data() + footer_offset + i * 24, 8);
    lm.block_offsets.push_back(off);
  }
  return lm;
}

std::vector<Fault> schedule(const Landmarks& lm, std::uint64_t seed, std::size_t count) {
  // Candidate targets: (label, region begin, region end). A fault picks
  // a target round-robin-weighted by the Rng, then an offset inside it.
  struct Target {
    const char* label;
    std::uint64_t begin;
    std::uint64_t end;  // exclusive
  };
  std::vector<Target> targets;
  const std::uint64_t events_end = lm.footer_offset != 0 ? lm.footer_offset : lm.file_size;
  if (lm.events_offset < events_end) {
    targets.push_back({"event section", lm.events_offset, events_end});
  }
  for (std::size_t b = 0; b < lm.block_offsets.size(); ++b) {
    const std::uint64_t begin = lm.block_offsets[b];
    const std::uint64_t end =
        b + 1 < lm.block_offsets.size() ? lm.block_offsets[b + 1] : events_end;
    if (begin < end && end <= lm.file_size) targets.push_back({"block body", begin, end});
  }
  if (lm.footer_offset != 0 && lm.footer_offset < lm.trailer_offset) {
    targets.push_back({"index entry", lm.footer_offset, lm.trailer_offset});
  }
  if (lm.trailer_offset != 0) {
    targets.push_back({"index trailer", lm.trailer_offset, lm.file_size});
  }
  if (lm.events_offset > 8) {
    // The last 8 header bytes are the event-count field (codec layout);
    // flipping them tests count/file disagreement handling.
    targets.push_back({"header count field", lm.events_offset - 8, lm.events_offset});
  }
  if (targets.empty()) targets.push_back({"whole file", 0, std::max<std::uint64_t>(lm.file_size, 1)});

  Rng rng(seed);
  std::vector<Fault> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Target& t = targets[static_cast<std::size_t>(rng.next_below(targets.size()))];
    Fault f;
    f.offset = t.begin + rng.next_below(std::max<std::uint64_t>(t.end - t.begin, 1));
    f.label = t.label;
    switch (rng.next_below(4)) {
      case 0:
        f.kind = FaultKind::kBitFlip;
        f.bit = static_cast<std::uint32_t>(rng.next_below(8));
        f.label += " bit flip";
        break;
      case 1:
        f.kind = FaultKind::kTruncate;
        f.label += " truncation";
        break;
      case 2:
        f.kind = FaultKind::kGarble;
        f.length = 1 + rng.next_below(16);
        f.seed = rng.next_u64();
        f.label += " garble";
        break;
      default:
        // Double bit flip in one byte: exercises multi-bit damage that
        // checksum-free formats can only catch structurally.
        f.kind = FaultKind::kBitFlip;
        f.bit = static_cast<std::uint32_t>(rng.next_below(8));
        f.label += " bit flip";
        break;
    }
    out.push_back(std::move(f));
  }
  return out;
}

// --------------------------------------------------------------------------
// FailingStream

/// A streambuf that serves `bytes` until `fail_at`, then throws from
/// underflow(). The owning istream is constructed with exceptions
/// masked off, so the throw surfaces as badbit — the only portable way
/// to make a std::istream go bad mid-read on demand.
class FailingStream::Buf : public std::streambuf {
 public:
  Buf(std::string bytes, std::size_t fail_at) : bytes_(std::move(bytes)), fail_at_(fail_at) {}

 protected:
  int_type underflow() override {
    // fail_at >= size means the device never fails: clean EOF.
    const std::size_t limit = std::min(fail_at_, bytes_.size());
    if (pos_ >= limit) {
      if (pos_ >= fail_at_) throw std::ios_base::failure("injected device error");
      return traits_type::eof();
    }
    // Serve small runs so a multi-chunk reader crosses the failure
    // point mid-loop rather than in the first fill.
    const std::size_t run = std::min<std::size_t>(limit - pos_, 4096);
    setg(bytes_.data() + pos_, bytes_.data() + pos_, bytes_.data() + pos_ + run);
    pos_ += run;
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string bytes_;
  std::size_t fail_at_;
  std::size_t pos_ = 0;
};

FailingStream::FailingStream(std::string bytes, std::size_t fail_at)
    : std::istream(nullptr), buf_(std::make_unique<Buf>(std::move(bytes), fail_at)) {
  rdbuf(buf_.get());
}

FailingStream::~FailingStream() = default;

}  // namespace ecohmem::faultinject
