#include "ecohmem/common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ecohmem::strings {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) s.remove_suffix(1);
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split(std::string_view s, std::string_view sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(trim(s.substr(start)));
      break;
    }
    out.emplace_back(trim(s.substr(start, pos - start)));
    start = pos + sep.size();
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Expected<std::uint64_t> parse_u64(std::string_view s) {
  s = trim(s);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return unexpected("invalid unsigned integer: '" + std::string(s) + "'");
  }
  return v;
}

Expected<double> parse_double(std::string_view s) {
  s = trim(s);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return unexpected("invalid number: '" + std::string(s) + "'");
  }
  return v;
}

Expected<Bytes> parse_bytes(std::string_view raw) {
  const std::string_view s = trim(raw);
  std::size_t unit_pos = s.size();
  while (unit_pos > 0 && (std::isalpha(static_cast<unsigned char>(s[unit_pos - 1])) != 0)) --unit_pos;
  const std::string_view num = trim(s.substr(0, unit_pos));
  const std::string_view unit = s.substr(unit_pos);

  const auto value = parse_double(num);
  if (!value) return unexpected("invalid byte size: '" + std::string(raw) + "'");
  if (!std::isfinite(*value)) return unexpected("non-finite byte size: '" + std::string(raw) + "'");
  if (*value < 0.0) return unexpected("negative byte size: '" + std::string(raw) + "'");

  double scale = 1.0;
  if (unit.empty() || unit == "B") {
    scale = 1.0;
  } else if (unit == "KB" || unit == "KiB" || unit == "K" || unit == "kB") {
    scale = 1024.0;
  } else if (unit == "MB" || unit == "MiB" || unit == "M") {
    scale = 1024.0 * 1024.0;
  } else if (unit == "GB" || unit == "GiB" || unit == "G") {
    scale = 1024.0 * 1024.0 * 1024.0;
  } else if (unit == "TB" || unit == "TiB" || unit == "T") {
    scale = 1024.0 * 1024.0 * 1024.0 * 1024.0;
  } else {
    return unexpected("unknown size unit: '" + std::string(unit) + "'");
  }
  // 2^64 is the first double past Bytes' range; the product of a finite
  // value and a scale may still overflow to infinity, which fails too.
  const double bytes = std::round(*value * scale);
  if (!(bytes < 0x1p64)) {
    return unexpected("byte size does not fit in 64 bits: '" + std::string(raw) + "'");
  }
  return static_cast<Bytes>(bytes);
}

std::string format_bytes(Bytes n) {
  static constexpr const char* kSuffix[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(n);
  int i = 0;
  while (v >= 1024.0 && i < 4) {
    v /= 1024.0;
    ++i;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), i == 0 ? "%.0f %s" : "%.1f %s", v, kSuffix[i]);
  return buf;
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[2 + 16] = {'0', 'x'};
  const auto end = std::to_chars(buf + 2, buf + sizeof buf, v, 16).ptr;
  out.append(buf, end);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, end);
}

void append_double(std::string& out, double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, end);
}

std::string to_hex(std::uint64_t v) {
  std::string out;
  append_hex(out, v);
  return out;
}

Expected<std::uint64_t> parse_hex(std::string_view s) {
  s = trim(s);
  int base = 10;
  if (starts_with(s, "0x") || starts_with(s, "0X")) {
    s.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return unexpected("invalid hex value: '" + std::string(s) + "'");
  }
  return v;
}

}  // namespace ecohmem::strings
