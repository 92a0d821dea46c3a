// ecohmem-lint — cross-artifact invariant checker for the pipeline's
// offline artifacts (trace, analyzer site CSV, advisor placement report,
// advisor config, online placement policy, migration log).
//
// The artifacts are produced by loosely-coupled stages; nothing in the
// pipeline itself verifies they stayed mutually consistent. This tool
// runs the ecohmem::check rule set over any combination of them and
// reports drift before a production run can silently misplace objects.
//
// Usage:
//   ecohmem-lint [--trace <trace.trc>] [--sites <sites.csv>]
//                [--report <report.txt>] [--config <advisor.ini>]
//                [--online-policy <policy.ini>]
//                [--json] [--disable id1,id2] [--list-rules] [--quiet]
//
// Exit status: 0 = clean (warnings allowed), 1 = error-severity findings,
// 2 = usage error. Rule ids and severities: docs/linting.md.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "cli_common.hpp"
#include "ecohmem/check/lint.hpp"

using namespace ecohmem;

namespace {

int list_rules() {
  const auto registry = check::RuleRegistry::builtin();
  for (const auto& rule : registry.rules()) {
    std::printf("%-28s %s\n", std::string(rule->id()).c_str(),
                std::string(rule->description()).c_str());
  }
  return 0;
}

/// Strict pass over argv: the shared parser tolerates unknown flags and
/// maps a trailing value-flag to "true", but a linter should hold its own
/// command line to the same standard as the artifacts it checks.
bool validate_usage(int argc, char** argv) {
  static constexpr std::string_view kValueFlags[] = {
      "trace", "sites", "report", "config", "online-policy", "model", "migration-log",
      "disable", "min-coverage"};
  static constexpr std::string_view kBoolFlags[] = {"json", "list-rules", "quiet", "help"};
  const auto is_one_of = [](std::string_view name, const auto& set) {
    for (const auto& f : set) {
      if (f == name) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "error: unexpected argument '%s' (flags only; see --help)\n",
                   argv[i]);
      return false;
    }
    const auto name = arg.substr(2);
    if (is_one_of(name, kBoolFlags)) continue;
    if (is_one_of(name, kValueFlags)) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --%s requires a value\n", std::string(name).c_str());
        return false;
      }
      ++i;
      continue;
    }
    std::fprintf(stderr, "error: unknown option '--%s' (see --help)\n",
                 std::string(name).c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!validate_usage(argc, argv)) return 2;
  const cli::Args args(argc, argv,
                       {"config", "disable", "migration-log", "min-coverage", "model",
                        "online-policy", "report", "sites", "trace"},
                       {"json", "list-rules", "quiet", "help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help")) {
    std::printf(
        "usage: ecohmem-lint [--trace <trace.trc>] [--sites <sites.csv>]\n"
        "                    [--report <report.txt>] [--config <advisor.ini>]\n"
        "                    [--online-policy <policy.ini>] [--model <model.ehm>]\n"
        "                    [--migration-log <log.csv>]\n"
        "                    [--json] [--disable id1,id2] [--list-rules] [--quiet]\n"
        "                    [--min-coverage F]\n"
        "--min-coverage F: minimum fraction of declared events a salvaged\n"
        "trace must recover before trace-salvage-coverage errors (default 0.9).\n"
        "--model: ranking model to verify a learned-policy report's\n"
        "'# model = <hash>' stamp against (advisor-policy-model rule).\n"
        "--migration-log: migration CSV from ecohmem-run --migration-log; the\n"
        "migration-* rules audit its conservation identities and sub-ranges.\n"
        "exit: 0 clean, 1 error findings, 2 usage error\n");
    return 0;
  }
  if (args.has("list-rules")) return list_rules();

  check::LintInputs inputs;
  inputs.trace_path = args.get("trace");
  inputs.sites_path = args.get("sites");
  inputs.report_path = args.get("report");
  inputs.config_path = args.get("config");
  inputs.online_path = args.get("online-policy");
  inputs.model_path = args.get("model");
  inputs.migration_log_path = args.get("migration-log");

  check::CheckOptions options;
  if (args.has("disable")) {
    options.disabled_rules = strings::split(args.get("disable"), ',');
    // Unknown ids are a usage error, not a silent no-op: a typo like
    // --disable report-capcity must not re-enable the rule in CI.
    const auto registry = check::RuleRegistry::builtin();
    bool ok = true;
    for (const auto& id : options.disabled_rules) {
      const bool pseudo = std::find(check::pseudo_rule_ids().begin(),
                                    check::pseudo_rule_ids().end(),
                                    id) != check::pseudo_rule_ids().end();
      if (pseudo || registry.find(id) != nullptr) continue;
      std::fprintf(stderr, "error: --disable: unknown rule id '%s'\n", id.c_str());
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "valid rule ids:");
      for (const auto& rule : registry.rules()) {
        std::fprintf(stderr, " %s", std::string(rule->id()).c_str());
      }
      for (const auto id : check::pseudo_rule_ids()) {
        std::fprintf(stderr, " %s", std::string(id).c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (args.has("min-coverage")) {
    const auto v = args.get_double("min-coverage", -1.0);
    if (!v) return cli::fail_usage(v.error());
    if (*v < 0.0 || *v > 1.0) return cli::fail_usage("--min-coverage must be a fraction in [0, 1]");
    options.min_salvage_coverage = *v;
  }

  const auto result = check::lint_files(inputs, options);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 2;
  }

  if (args.has("json")) {
    check::write_json(std::cout, result->diagnostics);
  } else {
    check::write_text(std::cout, result->diagnostics);
    if (!args.has("quiet")) {
      std::printf("%zu rules run, %zu skipped: %zu errors, %zu warnings\n",
                  result->rules_run.size(), result->rules_skipped.size(),
                  check::count_severity(result->diagnostics, check::Severity::kError),
                  check::count_severity(result->diagnostics, check::Severity::kWarning));
    }
  }
  return result->ok() ? 0 : 1;
}
