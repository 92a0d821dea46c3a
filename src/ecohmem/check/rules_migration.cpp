/// \file rules_migration.cpp
/// Migration-log rules: the CSV `ecohmem-run --migration-log` writes is
/// the auditable record of what the online policy actually moved. The
/// rules check the counter identities docs/online.md promises —
/// conservation (the rows must reproduce the summary's byte and move
/// totals, and `scheduled == applied + cancelled`), well-formed
/// sub-ranges for page-granular partial moves, and time order. When the
/// policy INI is also given, partial-move offsets are additionally
/// checked against its `chunk_bytes` alignment.

#include <string>
#include <vector>

#include "ecohmem/check/migration_log.hpp"
#include "ecohmem/check/rule.hpp"
#include "ecohmem/online/policy_config.hpp"

namespace ecohmem::check::rules {

namespace {

class MigrationRule : public Rule {
 public:
  MigrationRule(std::string_view id, std::string_view description)
      : id_(id), description_(description) {}

  [[nodiscard]] std::string_view id() const final { return id_; }
  [[nodiscard]] std::string_view description() const final { return description_; }
  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.migration_log != nullptr;
  }

 protected:
  std::string_view id_;
  std::string_view description_;
};

/// The trailing summary must exist and its counters must be exactly what
/// the rows add up to: applied == row count, partial == partial-row
/// count, migrated_bytes == sum of row bytes, and the scheduling
/// identity scheduled == applied + cancelled (a cancelled move charges
/// nothing and writes no row).
class ConservationRule final : public MigrationRule {
 public:
  ConservationRule()
      : MigrationRule("migration-conservation",
                      "migration log rows must reproduce the summary counters "
                      "(applied, partial, migrated_bytes; scheduled == applied + cancelled)") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const MigrationLog& log = *ctx.migration_log;
    if (!log.has_summary) {
      out.push_back(error(std::string(id_), ctx.migration_log_name,
                          "no trailing '# summary' line (truncated log?)"));
      return out;
    }
    std::uint64_t partial_rows = 0;
    Bytes total_bytes = 0;
    for (const auto& row : log.rows) {
      if (row.partial) ++partial_rows;
      total_bytes += row.bytes;
    }
    if (log.applied != log.rows.size()) {
      out.push_back(error(std::string(id_), ctx.migration_log_name,
                          "summary says applied=" + std::to_string(log.applied) + " but the log has " +
                              std::to_string(log.rows.size()) + " rows"));
    }
    if (log.partial_moves != partial_rows) {
      out.push_back(error(std::string(id_), ctx.migration_log_name,
                          "summary says partial=" + std::to_string(log.partial_moves) + " but " +
                              std::to_string(partial_rows) + " rows are partial"));
    }
    if (log.migrated_bytes != total_bytes) {
      out.push_back(error(std::string(id_), ctx.migration_log_name,
                          "summary says migrated_bytes=" + std::to_string(log.migrated_bytes) +
                              " but the rows sum to " + std::to_string(total_bytes)));
    }
    if (log.scheduled != log.applied + log.cancelled) {
      out.push_back(error(std::string(id_), ctx.migration_log_name,
                          "scheduled=" + std::to_string(log.scheduled) + " != applied=" +
                              std::to_string(log.applied) + " + cancelled=" +
                              std::to_string(log.cancelled) +
                              " (a cancelled move must not be double-counted)"));
    }
    return out;
  }
};

/// Every row must describe a real move: nonzero length, distinct tiers,
/// and the partial flag consistent with the offset (a whole-object move
/// starts at 0; an offset > 0 is by definition a sub-range).
class RangesRule final : public MigrationRule {
 public:
  RangesRule()
      : MigrationRule("migration-ranges",
                      "migration rows must move a nonzero range between distinct tiers, "
                      "with the partial flag consistent with the offset") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    for (const auto& row : ctx.migration_log->rows) {
      const std::string where = ctx.migration_log_name + ":" + std::to_string(row.line);
      if (row.bytes == 0) {
        out.push_back(error(std::string(id_), where, "zero-byte migration row"));
      }
      if (row.from_tier == row.to_tier) {
        out.push_back(error(std::string(id_), where,
                            "row moves within tier " + std::to_string(row.from_tier)));
      }
      if (row.offset != 0 && !row.partial) {
        out.push_back(error(std::string(id_), where,
                            "offset " + std::to_string(row.offset) +
                                " on a row not flagged partial"));
      }
    }
    return out;
  }
};

/// Rows must be in non-decreasing simulated time: the engine applies
/// migrations at kernel boundaries in program order, so an out-of-order
/// log means either a tampered file or a determinism bug.
class TimeOrderRule final : public MigrationRule {
 public:
  TimeOrderRule()
      : MigrationRule("migration-time-order",
                      "migration rows must be in non-decreasing simulated time") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const auto& rows = ctx.migration_log->rows;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].at < rows[i - 1].at) {
        out.push_back(error(std::string(id_),
                            ctx.migration_log_name + ":" + std::to_string(rows[i].line),
                            "at_ns " + std::to_string(rows[i].at) + " is before the previous row's " +
                                std::to_string(rows[i - 1].at)));
      }
    }
    return out;
  }
};

/// With the policy INI also given, partial-move offsets must be aligned
/// to its `chunk_bytes` — the planner promotes huge objects prefix-first
/// in chunk multiples, so a misaligned offset means the log and the
/// policy do not belong to the same run.
class ChunkAlignmentRule final : public MigrationRule {
 public:
  ChunkAlignmentRule()
      : MigrationRule("migration-chunk-alignment",
                      "partial-move offsets must be aligned to the policy's chunk_bytes") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.migration_log != nullptr && ctx.online != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    // Strict-load the policy; an unloadable one is the online-* rules'
    // finding (a bad chunk_bytes is online-chunk-bytes'), not this rule's.
    auto policy = online::OnlinePolicyConfig::from_config(*ctx.online);
    if (!policy) return out;
    const Bytes chunk = policy->chunk_bytes;
    for (const auto& row : ctx.migration_log->rows) {
      if (!row.partial || chunk == 0) continue;
      if (row.offset % chunk != 0) {
        out.push_back(error(std::string(id_),
                            ctx.migration_log_name + ":" + std::to_string(row.line),
                            "partial-move offset " + std::to_string(row.offset) +
                                " is not a multiple of chunk_bytes=" + std::to_string(chunk)));
      }
    }
    return out;
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> migration_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<ConservationRule>());
  rules.push_back(std::make_unique<RangesRule>());
  rules.push_back(std::make_unique<TimeOrderRule>());
  rules.push_back(std::make_unique<ChunkAlignmentRule>());
  return rules;
}

}  // namespace ecohmem::check::rules
