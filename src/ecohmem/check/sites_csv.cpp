#include "ecohmem/check/sites_csv.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "ecohmem/analyzer/site_report.hpp"
#include "ecohmem/common/strings.hpp"

namespace ecohmem::check {

namespace {

constexpr std::size_t kColumns = 14;

/// Splits one CSV row; the first field may be double-quoted (the call
/// stack, which contains no quotes or commas of its own — BOM frames are
/// `module!0xoffset` joined by " > ").
Expected<std::vector<std::string>> split_row(std::string_view line, std::size_t line_no) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  if (!line.empty() && line.front() == '"') {
    const std::size_t close = line.find('"', 1);
    if (close == std::string_view::npos) {
      return unexpected("line " + std::to_string(line_no) + ": unterminated quoted field");
    }
    fields.emplace_back(line.substr(1, close - 1));
    pos = close + 1;
    if (pos < line.size()) {
      if (line[pos] != ',') {
        return unexpected("line " + std::to_string(line_no) + ": expected ',' after quoted field");
      }
      ++pos;
    }
  }
  while (pos <= line.size()) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields.emplace_back(strings::trim(line.substr(pos)));
      break;
    }
    fields.emplace_back(strings::trim(line.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return fields;
}

Expected<std::uint64_t> row_u64(const std::string& field, std::string_view name,
                                std::size_t line_no) {
  auto v = strings::parse_u64(field);
  if (!v) {
    return unexpected("line " + std::to_string(line_no) + ": bad " + std::string(name) + ": " +
                      v.error());
  }
  return *v;
}

/// Every double column is a miss count, latency, bandwidth or lifetime:
/// finite and non-negative, like the trace values trace-event-values
/// checks.
Expected<double> row_double(const std::string& field, std::string_view name,
                            std::size_t line_no) {
  auto v = strings::parse_double(field);
  if (!v) {
    return unexpected("line " + std::to_string(line_no) + ": bad " + std::string(name) + ": " +
                      v.error());
  }
  if (!std::isfinite(*v) || *v < 0) {
    return unexpected("line " + std::to_string(line_no) + ": bad " + std::string(name) + ": '" +
                      field + "' is not a finite non-negative number");
  }
  return *v;
}

}  // namespace

Expected<SiteCsv> parse_site_csv(std::string_view text) {
  SiteCsv csv;
  std::size_t line_no = 0;
  std::size_t start = 0;
  bool saw_header = false;

  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string_view raw =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;

    const std::string_view line = strings::trim(raw);
    if (line.empty()) continue;

    // Comment lines may precede the header; the analyzer uses one to
    // stamp salvage coverage ("# coverage: events_seen=N ...").
    if (line.front() == '#') {
      std::string_view body = strings::trim(line.substr(1));
      if (body.rfind("coverage:", 0) == 0) {
        csv.has_coverage = true;
        std::istringstream kv{std::string(strings::trim(body.substr(9)))};
        std::string tok;
        while (kv >> tok) {
          const std::size_t eq = tok.find('=');
          if (eq == std::string::npos) {
            return unexpected("line " + std::to_string(line_no) + ": bad coverage field " + tok);
          }
          const std::string key = tok.substr(0, eq);
          const auto v = strings::parse_u64(tok.substr(eq + 1));
          if (!v) {
            return unexpected("line " + std::to_string(line_no) + ": bad coverage field " + tok);
          }
          if (key == "events_seen") csv.events_seen = *v;
          else if (key == "events_declared") csv.events_declared = *v;
          else if (key == "salvaged") csv.salvaged = *v != 0;
          else {
            return unexpected("line " + std::to_string(line_no) + ": unknown coverage field '" +
                              key + "'");
          }
        }
      }
      continue;
    }

    if (!saw_header) {
      if (line != analyzer::kSiteCsvHeader) {
        return unexpected("line " + std::to_string(line_no) +
                          ": unexpected site CSV header (column layout changed?)");
      }
      saw_header = true;
      continue;
    }

    auto fields = split_row(line, line_no);
    if (!fields) return unexpected(fields.error());
    if (fields->size() != kColumns) {
      return unexpected("line " + std::to_string(line_no) + ": expected " +
                        std::to_string(kColumns) + " columns, got " +
                        std::to_string(fields->size()));
    }

    SiteCsvRow row;
    row.line = line_no;
    row.callstack = (*fields)[0];

    const auto allocs = row_u64((*fields)[1], "allocs", line_no);
    if (!allocs) return unexpected(allocs.error());
    row.alloc_count = *allocs;
    const auto max_size = row_u64((*fields)[2], "max_size", line_no);
    if (!max_size) return unexpected(max_size.error());
    row.max_size = *max_size;
    const auto peak_live = row_u64((*fields)[3], "peak_live", line_no);
    if (!peak_live) return unexpected(peak_live.error());
    row.peak_live = *peak_live;

    struct DoubleField {
      std::size_t index;
      std::string_view name;
      double SiteCsvRow::* member;
    };
    static constexpr DoubleField kDoubles[] = {
        {4, "load_misses", &SiteCsvRow::load_misses},
        {5, "store_misses", &SiteCsvRow::store_misses},
        {6, "avg_load_latency_ns", &SiteCsvRow::avg_load_latency_ns},
        {7, "exec_bw_gbs", &SiteCsvRow::exec_bw_gbs},
        {8, "alloc_bw_gbs", &SiteCsvRow::alloc_bw_gbs},
        {9, "exec_sys_bw_gbs", &SiteCsvRow::exec_sys_bw_gbs},
        {12, "mean_lifetime_ns", &SiteCsvRow::mean_lifetime_ns},
    };
    for (const auto& f : kDoubles) {
      const auto v = row_double((*fields)[f.index], f.name, line_no);
      if (!v) return unexpected(v.error());
      row.*(f.member) = *v;
    }

    const auto first_alloc = row_u64((*fields)[10], "first_alloc_ns", line_no);
    if (!first_alloc) return unexpected(first_alloc.error());
    row.first_alloc = *first_alloc;
    const auto last_free = row_u64((*fields)[11], "last_free_ns", line_no);
    if (!last_free) return unexpected(last_free.error());
    row.last_free = *last_free;

    const std::string& writes = (*fields)[13];
    if (writes != "0" && writes != "1") {
      return unexpected("line " + std::to_string(line_no) + ": has_writes must be 0 or 1, got '" +
                        writes + "'");
    }
    row.has_writes = writes == "1";

    csv.rows.push_back(std::move(row));
  }

  if (!saw_header) return unexpected("empty site CSV (no header row)");
  return csv;
}

Expected<SiteCsv> load_site_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return unexpected("cannot open site CSV: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_site_csv(ss.str());
}

}  // namespace ecohmem::check
