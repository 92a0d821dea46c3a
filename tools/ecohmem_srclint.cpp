// ecohmem-srclint — source-level determinism and concurrency-contract
// lint (the ecohmem::check source rules; see docs/linting.md).
//
// ecohmem-lint checks the pipeline's *artifacts*; this tool checks the
// *source tree* that produces them: banned nondeterministic random
// sources, wall-clock reads in pipeline code, unordered-container
// iteration in serialization paths, and raw std::mutex where the
// annotated common::Mutex is required.
//
// Usage:
//   ecohmem-srclint [--root <dir>] [--json] [--quiet]
//                   [--disable id1,id2] [--list-rules] [--max-per-rule N]
//
// Exit status: 0 = clean, 1 = findings, 2 = usage error (including
// unknown rule ids in --disable).

#include <cstdio>
#include <iostream>

#include "cli_common.hpp"
#include "ecohmem/check/srclint.hpp"
#include "ecohmem/common/strings.hpp"

using namespace ecohmem;

namespace {

int list_rules() {
  for (const auto& rule : check::srclint_rules()) {
    std::printf("%-22s %s\n", std::string(rule.id).c_str(), std::string(rule.description).c_str());
  }
  return 0;
}

/// Strict pass over argv, mirroring ecohmem-lint: a linter holds its own
/// command line to the same standard as the code it checks.
bool validate_usage(int argc, char** argv) {
  static constexpr std::string_view kValueFlags[] = {"root", "disable", "max-per-rule"};
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
      std::fprintf(stderr, "error: unexpected argument '%s' (flags only; see --help)\n", argv[i]);
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
    std::fprintf(stderr, "error: unknown option '--%s' (see --help)\n", std::string(name).c_str());
    return false;
  }
  return true;
}

/// Unknown ids in --disable are a usage error, not a silent no-op: a
/// typo like --disable det-rnd must not re-enable the rule in CI.
bool validate_disable_ids(const std::vector<std::string>& ids) {
  bool ok = true;
  for (const auto& id : ids) {
    if (check::is_srclint_rule(id)) continue;
    std::fprintf(stderr, "error: --disable: unknown rule id '%s'\n", id.c_str());
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "valid rule ids:");
    for (const auto& rule : check::srclint_rules()) {
      std::fprintf(stderr, " %s", std::string(rule.id).c_str());
    }
    std::fprintf(stderr, "\n");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!validate_usage(argc, argv)) return 2;
  const cli::Args args(argc, argv,
                       {"disable", "max-per-rule", "root"},
                       {"json", "list-rules", "quiet", "help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help")) {
    std::printf(
        "usage: ecohmem-srclint [--root <dir>] [--json] [--quiet]\n"
        "                       [--disable id1,id2] [--list-rules] [--max-per-rule N]\n"
        "Scans <root>/src and <root>/tools (default root: .) for determinism-\n"
        "and concurrency-contract violations. Suppress one finding with a\n"
        "'// srclint-ok: <rule-id> (reason)' comment on or above the line.\n"
        "exit: 0 clean, 1 findings, 2 usage error\n");
    return 0;
  }
  if (args.has("list-rules")) return list_rules();

  check::SrclintOptions options;
  if (args.has("disable")) {
    options.disabled_rules = strings::split(args.get("disable"), ',');
    if (!validate_disable_ids(options.disabled_rules)) return 2;
  }
  if (args.has("max-per-rule")) {
    const auto n = args.get_int_in_range("max-per-rule", 64, 0, 1'000'000);
    if (!n) {
      std::fprintf(stderr, "error: %s\n", n.error().c_str());
      return 2;
    }
    options.max_per_rule = static_cast<std::size_t>(*n);
  }

  const std::string root = args.has("root") ? args.get("root") : ".";
  const auto result = check::srclint_scan_tree(root, options);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 2;
  }

  if (args.has("json")) {
    check::write_json(std::cout, result->diagnostics);
  } else {
    check::write_text(std::cout, result->diagnostics);
    if (!args.has("quiet")) {
      std::printf("%zu files scanned, %zu rules run, %zu skipped: %zu findings\n",
                  result->files_scanned, result->rules_run.size(), result->rules_skipped.size(),
                  result->diagnostics.size());
    }
  }
  return result->ok() ? 0 : 1;
}
