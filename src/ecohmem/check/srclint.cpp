#include "ecohmem/check/srclint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace ecohmem::check {

namespace {

namespace fs = std::filesystem;

/// One source rule: a regex over comment-stripped lines, scoped to path
/// prefixes where the contract applies, with sanctioned prefixes where
/// the banned construct is the implementation itself (e.g. the annotated
/// common::Mutex owns a raw std::mutex; this file owns the pattern strings).
struct SourceRule {
  std::string_view id;
  std::string_view description;
  std::string_view message;                     ///< finding text (token appended)
  std::vector<std::string_view> scope;          ///< relative-path prefixes checked
  std::vector<std::string_view> sanctioned;     ///< relative-path prefixes exempt
  std::regex pattern;
};

const std::vector<SourceRule>& source_rules() {
  static const std::vector<SourceRule> rules = [] {
    std::vector<SourceRule> r;
    r.push_back(SourceRule{
        "det-rand",
        "no nondeterministic random sources outside common/rng (use ecohmem::Rng)",
        "nondeterministic random source; draw from an explicitly seeded ecohmem::Rng",
        {"src/", "tools/"},
        {"src/ecohmem/common/rng", "src/ecohmem/check/srclint"},
        std::regex(R"((std\s*::\s*random_device)|(\b[sd]?rand\s*\()|(\b[dlm]rand48\b)|(std\s*::\s*(mt19937|minstd_rand|default_random_engine)))")});
    r.push_back(SourceRule{
        "det-wallclock",
        "no wall-clock reads in pipeline code (simulated time only)",
        "wall-clock read; pipeline timestamps must come from the simulated clock",
        {"src/", "tools/"},
        {"src/ecohmem/check/srclint"},
        std::regex(R"((\b(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b)|(\bgettimeofday\s*\()|(\bclock_gettime\s*\()|(\btime\s*\(\s*(nullptr|NULL|0)?\s*\)))")});
    r.push_back(SourceRule{
        "det-unordered-iter",
        "no iteration over unordered containers in codec/analyzer/report paths "
        "(order leaks into serialized output)",
        "iterating an unordered container declared in this file; serialized output "
        "must not depend on hash order — sort first, or suppress with a reason",
        {"src/ecohmem/trace/", "src/ecohmem/analyzer/", "src/ecohmem/advisor/"},
        {"src/ecohmem/check/srclint"},
        // The iteration regex; the per-file declaration pass is separate.
        std::regex(R"(for\s*\(.*:\s*([^)]+)\))")});
    r.push_back(SourceRule{
        "conc-raw-mutex",
        "no raw std::mutex/std::shared_mutex in library code (use the annotated "
        "common::Mutex, docs/threading.md)",
        "raw standard mutex/CV; use common::Mutex / common::ScopedLock / "
        "condition_variable_any so the thread-safety analysis sees the lock",
        {"src/"},
        {"src/ecohmem/common/thread_annotations", "src/ecohmem/check/srclint"},
        std::regex(R"(std\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|condition_variable)\b)")});
    return r;
  }();
  return rules;
}

[[nodiscard]] bool path_has_prefix(const std::string& rel,
                                   const std::vector<std::string_view>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&rel](std::string_view p) { return rel.rfind(p, 0) == 0; });
}

/// Strips `//` and `/* */` comments; `in_block` carries block-comment
/// state across lines. String literals are not parsed — rules whose
/// tokens appear in literals sanction their own paths instead.
std::string strip_comments(const std::string& line, bool& in_block) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size();) {
    if (in_block) {
      if (line.compare(i, 2, "*/") == 0) {
        in_block = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    if (line.compare(i, 2, "//") == 0) break;
    if (line.compare(i, 2, "/*") == 0) {
      in_block = true;
      i += 2;
      continue;
    }
    out.push_back(line[i]);
    ++i;
  }
  return out;
}

/// True when the raw line carries a `srclint-ok:` suppression naming
/// `rule_id` (ids after the colon, separated by commas/spaces, reason
/// text in parentheses ignored).
bool has_suppression(const std::string& raw, std::string_view rule_id) {
  const std::size_t at = raw.find("srclint-ok:");
  if (at == std::string::npos) return false;
  std::size_t i = at + std::string_view("srclint-ok:").size();
  while (i < raw.size()) {
    while (i < raw.size() && (raw[i] == ' ' || raw[i] == ',')) ++i;
    if (i >= raw.size() || raw[i] == '(') break;  // reason text begins
    std::size_t j = i;
    while (j < raw.size() && (std::isalnum(static_cast<unsigned char>(raw[j])) || raw[j] == '-')) {
      ++j;
    }
    if (j == i) break;
    if (std::string_view(raw).substr(i, j - i) == rule_id) return true;
    i = j;
  }
  return false;
}

/// Names declared as unordered containers in this file (a line-local
/// heuristic: single-line declarations only, which matches the
/// project's style for container members and locals).
std::vector<std::string> unordered_names(const std::vector<std::string>& stripped) {
  static const std::regex decl(
      R"(unordered_(?:map|set|multimap|multiset)\s*<.*>\s*&?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|ECOHMEM_GUARDED_BY))");
  std::vector<std::string> names;
  for (const auto& line : stripped) {
    std::smatch m;
    if (std::regex_search(line, m, decl)) names.push_back(m[1].str());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// Final identifier of a range expression: `shard.sites` -> "sites",
/// `sites` -> "sites", `f(x)` -> "" (calls produce fresh sequences the
/// declaration pass cannot vouch for, so they are not flagged).
std::string trailing_identifier(std::string expr) {
  while (!expr.empty() && std::isspace(static_cast<unsigned char>(expr.back()))) expr.pop_back();
  std::size_t i = expr.size();
  while (i > 0) {
    const char c = expr[i - 1];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      --i;
    } else {
      break;
    }
  }
  return expr.substr(i);
}

struct ScanState {
  const SrclintOptions& options;
  std::vector<Diagnostic> diagnostics;
  // Per-rule finding counts for the max_per_rule cap.
  std::vector<std::size_t> counts = std::vector<std::size_t>(source_rules().size(), 0);
};

void report(ScanState& state, std::size_t rule_index, const std::string& rel, std::size_t line_no,
            const std::string& detail) {
  const SourceRule& rule = source_rules()[rule_index];
  std::size_t& count = ++state.counts[rule_index];
  if (state.options.max_per_rule > 0 && count > state.options.max_per_rule) return;
  std::string message(rule.message);
  if (!detail.empty()) message += ": " + detail;
  state.diagnostics.push_back(
      error(std::string(rule.id), rel + ":" + std::to_string(line_no), std::move(message)));
}

void scan_file(ScanState& state, const fs::path& path, const std::string& rel,
               const std::vector<bool>& enabled) {
  std::ifstream in(path);
  if (!in) {
    state.diagnostics.push_back(error("srclint-io", rel, "cannot open file"));
    return;
  }
  std::vector<std::string> raw;
  for (std::string line; std::getline(in, line);) raw.push_back(std::move(line));

  std::vector<std::string> stripped;
  stripped.reserve(raw.size());
  bool in_block = false;
  for (const auto& line : raw) stripped.push_back(strip_comments(line, in_block));

  const auto& rules = source_rules();
  std::vector<std::string> iter_names;  // lazily built for det-unordered-iter
  bool iter_names_built = false;

  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    const SourceRule& rule = rules[ri];
    if (!enabled[ri]) continue;
    if (!path_has_prefix(rel, rule.scope) || path_has_prefix(rel, rule.sanctioned)) continue;

    const bool is_iter_rule = rule.id == "det-unordered-iter";
    if (is_iter_rule && !iter_names_built) {
      iter_names = unordered_names(stripped);
      iter_names_built = true;
    }
    if (is_iter_rule && iter_names.empty()) continue;

    for (std::size_t li = 0; li < stripped.size(); ++li) {
      std::smatch m;
      if (!std::regex_search(stripped[li], m, rule.pattern)) continue;
      std::string detail = m.str(0);
      if (is_iter_rule) {
        const std::string name = trailing_identifier(m[1].str());
        if (name.empty() ||
            !std::binary_search(iter_names.begin(), iter_names.end(), name)) {
          continue;
        }
        detail = "range-for over '" + name + "'";
      }
      if (has_suppression(raw[li], rule.id)) continue;
      if (li > 0 && has_suppression(raw[li - 1], rule.id)) continue;
      report(state, ri, rel, li + 1, detail);
    }
  }
}

}  // namespace

const std::vector<SrclintRuleInfo>& srclint_rules() {
  static const std::vector<SrclintRuleInfo> infos = [] {
    std::vector<SrclintRuleInfo> out;
    for (const auto& rule : source_rules()) out.push_back({rule.id, rule.description});
    return out;
  }();
  return infos;
}

bool is_srclint_rule(std::string_view id) {
  return std::any_of(source_rules().begin(), source_rules().end(),
                     [id](const SourceRule& r) { return r.id == id; });
}

Expected<SrclintResult> srclint_scan_tree(const std::string& root, const SrclintOptions& options) {
  const fs::path base(root.empty() ? "." : root);
  std::vector<fs::path> trees;
  for (const char* sub : {"src", "tools"}) {
    std::error_code ec;
    if (fs::is_directory(base / sub, ec)) trees.push_back(base / sub);
  }
  if (trees.empty()) {
    return unexpected("no src/ or tools/ tree under '" + base.string() + "'");
  }

  // Collect candidate files as (relative path, absolute path), sorted by
  // relative path so findings are stable across filesystems.
  std::vector<std::pair<std::string, fs::path>> files;
  for (const auto& tree : trees) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(tree, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const fs::path& p = it->path();
      const std::string ext = p.extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") continue;
      files.emplace_back(fs::relative(p, base, ec).generic_string(), p);
    }
  }
  std::sort(files.begin(), files.end());

  const auto& rules = source_rules();
  std::vector<bool> enabled(rules.size(), true);
  SrclintResult result;
  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    const bool off = std::any_of(options.disabled_rules.begin(), options.disabled_rules.end(),
                                 [&](const std::string& d) { return d == rules[ri].id; });
    enabled[ri] = !off;
    (off ? result.rules_skipped : result.rules_run).emplace_back(rules[ri].id);
  }

  ScanState state{options, {}, std::vector<std::size_t>(rules.size(), 0)};
  for (const auto& [rel, abs] : files) {
    scan_file(state, abs, rel, enabled);
    ++result.files_scanned;
  }

  // Fold capped findings into one summary per rule, mirroring run_all.
  for (std::size_t ri = 0; ri < rules.size(); ++ri) {
    if (options.max_per_rule > 0 && state.counts[ri] > options.max_per_rule) {
      const std::size_t dropped = state.counts[ri] - options.max_per_rule;
      state.diagnostics.push_back(error(std::string(rules[ri].id), "srclint",
                                        "... " + std::to_string(dropped) +
                                            " further findings of this rule suppressed"));
    }
  }
  result.diagnostics = std::move(state.diagnostics);
  return result;
}

}  // namespace ecohmem::check
