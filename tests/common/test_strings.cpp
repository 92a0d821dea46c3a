#include "ecohmem/common/strings.hpp"

#include <gtest/gtest.h>

namespace ecohmem::strings {
namespace {

TEST(Strings, TrimRemovesWhitespaceBothSides) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitOnChar) {
  const auto parts = split("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitOnStringSeparator) {
  const auto parts = split("f.c:1 > f.c:2 > g.c:9", " > ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "g.c:9");
}

TEST(Strings, SplitOnStringWithNoSeparator) {
  const auto parts = split("single", " > ");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "single");
}

TEST(Strings, ParseU64Valid) {
  const auto v = parse_u64("12345");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 12345u);
}

TEST(Strings, ParseU64RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_u64("123x").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-5").has_value());
}

TEST(Strings, ParseDouble) {
  const auto v = parse_double("2.5");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 2.5);
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Strings, ParseBytesUnits) {
  EXPECT_EQ(parse_bytes("128").value(), 128u);
  EXPECT_EQ(parse_bytes("128B").value(), 128u);
  EXPECT_EQ(parse_bytes("2KB").value(), 2048u);
  EXPECT_EQ(parse_bytes("3MB").value(), 3u * 1024 * 1024);
  EXPECT_EQ(parse_bytes("12GB").value(), 12ull * 1024 * 1024 * 1024);
  EXPECT_EQ(parse_bytes("1TB").value(), 1ull << 40);
  EXPECT_EQ(parse_bytes("1.5GB").value(), 1610612736u);
  // Sizes from 2^63 up to 2^64 fit in Bytes and parse exactly.
  EXPECT_EQ(parse_bytes("8388608 TB").value(), 1ull << 63);
  EXPECT_EQ(parse_bytes("9e18").value(), 9'000'000'000'000'000'000ull);
  EXPECT_EQ(parse_bytes("12582912 TB").value(), 3ull << 62);
}

TEST(Strings, ParseBytesRejectsInvalid) {
  EXPECT_FALSE(parse_bytes("12XB").has_value());
  EXPECT_FALSE(parse_bytes("GB").has_value());
  EXPECT_FALSE(parse_bytes("-1GB").has_value());
  // Non-finite and too-large sizes fail with the input quoted; they
  // once came back as 2^63 bytes.
  for (const char* bad :
       {"nan GB", "inf GB", "1e30 GB", "1e300TB", "18446744073709551616", "16777216 TB"}) {
    const auto parsed = parse_bytes(bad);
    ASSERT_FALSE(parsed.has_value()) << bad << " parsed as " << *parsed;
    EXPECT_NE(parsed.error().find(bad), std::string::npos) << parsed.error();
  }
}

TEST(Strings, FormatBytesPicksSuffix) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(12ull * 1024 * 1024 * 1024), "12.0 GiB");
}

TEST(Strings, HexRoundTrip) {
  EXPECT_EQ(to_hex(0x1a2b), "0x1a2b");
  EXPECT_EQ(parse_hex("0x1a2b").value(), 0x1a2bu);
  EXPECT_EQ(parse_hex("255").value(), 255u);
  EXPECT_FALSE(parse_hex("0xZZ").has_value());
}

TEST(Strings, AppendDoubleRoundTrips) {
  std::string out;
  for (const double v : {0.0, 0.25, 1e-9, 1.0 / 3.0, 3.4167278635703413, 1e300}) {
    out.clear();
    append_double(out, v);
    EXPECT_EQ(parse_double(out).value(), v) << out;
  }
  out = "x=";
  append_double(out, 0.15);
  EXPECT_EQ(out, "x=0.15");
  // Six significant digits would print both as 3.41673.
  std::string a;
  std::string b;
  append_double(a, 3.4167278635703413);
  append_double(b, 3.416727863570341);
  EXPECT_NE(a, b);
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("size=42", "size="));
  EXPECT_FALSE(starts_with("siz", "size="));
}

}  // namespace
}  // namespace ecohmem::strings
