#include "ecohmem/check/migration_log.hpp"

#include <fstream>
#include <sstream>

#include "ecohmem/common/strings.hpp"
#include "ecohmem/runtime/metrics.hpp"

namespace ecohmem::check {

namespace {

constexpr std::size_t kColumns = 7;

Expected<std::uint64_t> row_u64(const std::string& field, std::string_view name,
                                std::size_t line_no) {
  auto v = strings::parse_u64(field);
  if (!v) {
    return unexpected("line " + std::to_string(line_no) + ": bad " + std::string(name) + ": " +
                      v.error());
  }
  return *v;
}

}  // namespace

Expected<MigrationLog> parse_migration_log(std::string_view text) {
  MigrationLog log;
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

    if (line.front() == '#') {
      std::string_view body = strings::trim(line.substr(1));
      if (body.rfind("summary", 0) != 0) continue;
      log.has_summary = true;
      std::istringstream kv{std::string(strings::trim(body.substr(7)))};
      std::string tok;
      while (kv >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
          return unexpected("line " + std::to_string(line_no) + ": bad summary field " + tok);
        }
        const std::string key = tok.substr(0, eq);
        const auto v = strings::parse_u64(tok.substr(eq + 1));
        if (!v) {
          return unexpected("line " + std::to_string(line_no) + ": bad summary field " + tok);
        }
        if (key == "scheduled") log.scheduled = *v;
        else if (key == "applied") log.applied = *v;
        else if (key == "partial") log.partial_moves = *v;
        else if (key == "cancelled") log.cancelled = *v;
        else if (key == "migrated_bytes") log.migrated_bytes = *v;
        else {
          return unexpected("line " + std::to_string(line_no) + ": unknown summary field '" +
                            key + "'");
        }
      }
      continue;
    }

    if (!saw_header) {
      if (line != runtime::kMigrationLogHeader) {
        return unexpected("line " + std::to_string(line_no) +
                          ": unexpected migration log header (column layout changed?)");
      }
      saw_header = true;
      continue;
    }

    std::vector<std::string_view> fields;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      const std::size_t comma = line.find(',', pos);
      if (comma == std::string_view::npos) {
        fields.push_back(strings::trim(line.substr(pos)));
        break;
      }
      fields.push_back(strings::trim(line.substr(pos, comma - pos)));
      pos = comma + 1;
    }
    if (fields.size() != kColumns) {
      return unexpected("line " + std::to_string(line_no) + ": expected " +
                        std::to_string(kColumns) + " columns, got " +
                        std::to_string(fields.size()));
    }

    MigrationLogRow row;
    row.line = line_no;
    struct U64Field {
      std::size_t index;
      std::string_view name;
    };
    static constexpr U64Field kFields[] = {{0, "at_ns"},     {1, "object"}, {2, "from_tier"},
                                           {3, "to_tier"},   {4, "bytes"},  {5, "offset"}};
    std::uint64_t values[6] = {};
    for (const auto& f : kFields) {
      const auto v = row_u64(std::string(fields[f.index]), f.name, line_no);
      if (!v) return unexpected(v.error());
      values[f.index] = *v;
    }
    row.at = static_cast<Ns>(values[0]);
    row.object = static_cast<std::size_t>(values[1]);
    row.from_tier = static_cast<std::size_t>(values[2]);
    row.to_tier = static_cast<std::size_t>(values[3]);
    row.bytes = values[4];
    row.offset = values[5];
    if (fields[6] != "0" && fields[6] != "1") {
      return unexpected("line " + std::to_string(line_no) + ": partial must be 0 or 1, got '" +
                        std::string(fields[6]) + "'");
    }
    row.partial = fields[6] == "1";
    log.rows.push_back(row);
  }

  if (!saw_header) return unexpected("empty migration log (no header row)");
  return log;
}

Expected<MigrationLog> load_migration_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) return unexpected("cannot open migration log: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_migration_log(ss.str());
}

}  // namespace ecohmem::check
