#pragma once

/// \file strings.hpp
/// Small string utilities shared by the config, report and trace parsers.

#include <string>
#include <string_view>
#include <vector>

#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::strings {

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on the literal separator string (used by the call-stack formats
/// of Table I, whose frame separator is " > ").
[[nodiscard]] std::vector<std::string> split(std::string_view s, std::string_view sep);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; fails on trailing garbage.
[[nodiscard]] Expected<std::uint64_t> parse_u64(std::string_view s);

/// Parses a floating point number; fails on trailing garbage.
[[nodiscard]] Expected<double> parse_double(std::string_view s);

/// Parses a byte size with optional suffix: "12GB", "512MB", "64KB", "128B",
/// binary units ("GiB" etc.) and bare byte counts are accepted.
[[nodiscard]] Expected<Bytes> parse_bytes(std::string_view s);

/// Formats a byte count with a human-friendly binary suffix ("11.0 GiB").
[[nodiscard]] std::string format_bytes(Bytes n);

/// Appends `v` as lowercase hex with a "0x" prefix ("0x1a2b").
void append_hex(std::string& out, std::uint64_t v);

/// Appends `v` in decimal.
void append_u64(std::string& out, std::uint64_t v);

/// Appends `v` as the shortest decimal that reads back as the same
/// double (`std::to_chars`), e.g. "0.25", "1e-09", "3.3333333333333335".
void append_double(std::string& out, double v);

/// `v` as lowercase hex with a "0x" prefix: `append_hex` into a new string.
[[nodiscard]] std::string to_hex(std::uint64_t v);

/// Parses "0x..." hexadecimal (or decimal without prefix).
[[nodiscard]] Expected<std::uint64_t> parse_hex(std::string_view s);

}  // namespace ecohmem::strings
