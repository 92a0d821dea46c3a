#include "ecohmem/check/lint.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "ecohmem/common/strings.hpp"
#include "ecohmem/learn/model.hpp"
#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/trace_reader.hpp"

namespace ecohmem::check {

namespace {

Expected<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return unexpected("cannot open: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Leniently loads the footer index of a v3 trace so trace-v3-index can
/// report every fault of its raw values, and stamps the two header
/// fields the index is checked against into `ctx`. Returns nullopt for
/// unreadable files or undecodable headers (both of which trace-load
/// reports); only a structurally unreadable *index* sets `index_error` —
/// the caller turns that into a diagnostic once it knows whether a
/// salvage read recovered the trace (which decides the severity).
std::optional<trace::codec::IndexInfo> load_trace_index(const std::string& path,
                                                        CheckContext& ctx,
                                                        std::string& index_error) {
  const auto bytes = read_file(path);
  if (!bytes) return std::nullopt;
  const auto* data = reinterpret_cast<const unsigned char*>(bytes->data());
  trace::codec::ByteReader src(data, bytes->size(), 0);
  const auto header = trace::codec::decode_header(src);
  if (!header) return std::nullopt;
  auto index = trace::codec::decode_index(data, bytes->size());
  if (!index) {
    index_error = index.error();
    return std::nullopt;
  }
  ctx.trace_events_offset = header->events_offset;
  ctx.trace_header_event_count = header->event_count;
  return std::move(*index);
}

/// Builds a module table naming every module a BOM report mentions, so a
/// report can be structurally linted without the trace it was captured
/// against. Text sizes are unknown (0), which disables bounds checks but
/// keeps frame parsing exact.
bom::ModuleTable synthesize_modules(std::string_view report_text) {
  bom::ModuleTable modules;
  std::unordered_set<std::string> seen;
  std::size_t start = 0;
  while (start <= report_text.size()) {
    const std::size_t end = report_text.find('\n', start);
    std::string_view line = report_text.substr(
        start, end == std::string_view::npos ? std::string_view::npos : end - start);
    start = end == std::string_view::npos ? report_text.size() + 1 : end + 1;

    line = strings::trim(line);
    if (line.empty() || line.front() == '#') continue;
    if (const std::size_t at = line.rfind(" @ "); at != std::string_view::npos) {
      line = line.substr(0, at);
    }
    for (const auto& frame : strings::split(line, bom::kFrameSeparator)) {
      const std::size_t bang = frame.find("!0x");
      if (bang == std::string::npos) continue;
      std::string name = frame.substr(0, bang);
      if (!name.empty() && seen.insert(name).second) {
        modules.add_module(std::move(name), /*text_size=*/0);
      }
    }
  }
  return modules;
}

}  // namespace

const std::vector<std::string_view>& pseudo_rule_ids() {
  static const std::vector<std::string_view> ids = {
      "trace-load", "trace-index-load", "sites-load",
      "report-load", "config-load",     "online-load",
      "model-load",  "migration-log-load"};
  return ids;
}

Expected<LintResult> lint_files(const LintInputs& inputs, const CheckOptions& options) {
  return lint_files(RuleRegistry::builtin(), inputs, options);
}

Expected<LintResult> lint_files(const RuleRegistry& registry, const LintInputs& inputs,
                                const CheckOptions& options) {
  if (inputs.trace_path.empty() && inputs.sites_path.empty() && inputs.report_path.empty() &&
      inputs.config_path.empty() && inputs.online_path.empty() && inputs.model_path.empty() &&
      inputs.migration_log_path.empty()) {
    return unexpected(
        "nothing to lint: provide --trace, --sites, --report, --config, --online-policy, "
        "--model and/or --migration-log");
  }

  std::vector<Diagnostic> load_diags;
  CheckContext ctx;
  ctx.min_salvage_coverage = options.min_salvage_coverage;

  // The loaded artifacts outlive the rule run.
  std::optional<trace::TraceBundle> bundle;
  std::optional<trace::SalvageManifest> salvage_manifest;
  std::optional<analyzer::AnalysisResult> analysis;
  std::optional<SiteCsv> sites;
  std::optional<flexmalloc::ParsedReport> report;
  std::optional<advisor::AdvisorConfig> config;
  std::optional<Config> online;
  std::optional<learn::Model> model;
  std::optional<MigrationLog> migration_log;
  std::optional<bom::ModuleTable> synthetic_modules;
  std::optional<trace::codec::IndexInfo> trace_index;

  if (!inputs.trace_path.empty()) {
    ctx.trace_name = inputs.trace_path;
    // The raw v3 index is loaded independently of the strict reader: a
    // broken index fails load_trace below, and trace-v3-index exists to
    // say exactly how it is broken.
    std::string index_error;
    trace_index = load_trace_index(inputs.trace_path, ctx, index_error);
    if (trace_index) ctx.trace_index = &*trace_index;
    auto loaded = trace::load_trace(inputs.trace_path);
    if (!loaded) {
      // Strict load failed: fall back to a salvage-mode read. A trace
      // with recoverable blocks lints in degraded form — the failure
      // becomes a warning, and trace-salvage-coverage gates how much
      // data may be missing (docs/robustness.md).
      const std::string strict_error = loaded.error();
      trace::TraceOpenOptions salvage_opts;
      salvage_opts.salvage = true;
      auto reader = trace::TraceReader::open(inputs.trace_path, salvage_opts);
      if (reader) {
        auto recovered = reader->read_all();
        if (recovered) {
          salvage_manifest.emplace(reader->manifest());
          ctx.salvage = &*salvage_manifest;
          load_diags.push_back(warning("trace-load", inputs.trace_path,
                                       "strict load failed (" + strict_error + "); " +
                                           salvage_manifest->summary()));
          loaded = std::move(*recovered);
        }
      }
    }
    if (!index_error.empty()) {
      // An unreadable footer index is fatal for trace-v3-index either
      // way, but once a salvage read recovered the events it is degraded
      // data, not a lint failure — trace-salvage-coverage owns the gating.
      const std::string message = "v3 footer index is structurally unreadable (" +
                                  index_error + "); trace-v3-index skipped";
      load_diags.push_back(ctx.salvage != nullptr
                               ? warning("trace-index-load", inputs.trace_path, message)
                               : error("trace-index-load", inputs.trace_path, message));
    }
    if (loaded) {
      bundle.emplace(std::move(*loaded));
      ctx.bundle = &*bundle;
      // Derive the analyzer view. A malformed trace fails the replay;
      // the trace-* rules report the specifics, so this is only noted.
      analyzer::AnalyzerOptions aopt;
      aopt.coverage = bundle->coverage;
      auto derived = analyzer::analyze(bundle->trace, aopt);
      if (derived) {
        analysis.emplace(std::move(*derived));
        ctx.analysis = &*analysis;
      } else {
        load_diags.push_back(info("trace-load", inputs.trace_path,
                                  "analyzer replay failed (" + derived.error() +
                                      "); analyzer-level rules skipped"));
      }
    } else {
      load_diags.push_back(error("trace-load", inputs.trace_path, loaded.error()));
    }
  }

  if (!inputs.config_path.empty()) {
    ctx.config_name = inputs.config_path;
    auto file = Config::load(inputs.config_path);
    if (!file) {
      load_diags.push_back(error("config-load", inputs.config_path, file.error()));
    } else {
      // Unvalidated: config-coefficients reports every violation.
      auto parsed = advisor::AdvisorConfig::parse(*file);
      if (!parsed) {
        load_diags.push_back(error("config-load", inputs.config_path, parsed.error()));
      } else {
        config.emplace(std::move(*parsed));
        ctx.config = &*config;
      }
    }
  }

  if (!inputs.online_path.empty()) {
    ctx.online_name = inputs.online_path;
    auto file = Config::load(inputs.online_path);
    if (!file) {
      load_diags.push_back(error("online-load", inputs.online_path, file.error()));
    } else {
      // Kept as the raw INI: the online-* rules re-parse each key so one
      // bad value does not hide the others (unlike the strict loader).
      online.emplace(std::move(*file));
      ctx.online = &*online;
    }
  }

  if (!inputs.model_path.empty()) {
    ctx.model_name = inputs.model_path;
    // The strict loader mirrors the trace loaders (absolute byte offsets,
    // checksum); its message is the diagnostic.
    auto loaded = learn::load_model(inputs.model_path);
    if (loaded) {
      model.emplace(std::move(*loaded));
      ctx.model = &*model;
    } else {
      load_diags.push_back(error("model-load", inputs.model_path, loaded.error()));
    }
  }

  if (!inputs.migration_log_path.empty()) {
    ctx.migration_log_name = inputs.migration_log_path;
    auto loaded = load_migration_log(inputs.migration_log_path);
    if (loaded) {
      migration_log.emplace(std::move(*loaded));
      ctx.migration_log = &*migration_log;
    } else {
      load_diags.push_back(
          error("migration-log-load", inputs.migration_log_path, loaded.error()));
    }
  }

  if (!inputs.sites_path.empty()) {
    ctx.sites_name = inputs.sites_path;
    auto loaded = load_site_csv(inputs.sites_path);
    if (loaded) {
      sites.emplace(std::move(*loaded));
      ctx.sites = &*sites;
    } else {
      load_diags.push_back(error("sites-load", inputs.sites_path, loaded.error()));
    }
  }

  if (!inputs.report_path.empty()) {
    ctx.report_name = inputs.report_path;
    auto text = read_file(inputs.report_path);
    if (!text) {
      load_diags.push_back(error("report-load", inputs.report_path, text.error()));
    } else {
      const bom::ModuleTable* modules = nullptr;
      if (ctx.bundle != nullptr) {
        modules = &ctx.bundle->modules;
      } else {
        synthetic_modules.emplace(synthesize_modules(*text));
        modules = &*synthetic_modules;
        load_diags.push_back(info("report-load", inputs.report_path,
                                  "no trace given: module identities taken from the report "
                                  "itself; frame-level drift checks skipped"));
      }
      auto parsed = flexmalloc::parse_report(*text, *modules);
      if (parsed) {
        report.emplace(std::move(*parsed));
        ctx.report = &*report;
      } else {
        load_diags.push_back(error("report-load", inputs.report_path, parsed.error()));
      }
    }
  }

  RunResult run = registry.run_all(ctx, options);

  // --disable applies to the loader pseudo-rules too: a CI setup that
  // knowingly lints salvaged traces can silence trace-load without also
  // losing the real rules.
  if (!options.disabled_rules.empty()) {
    std::erase_if(load_diags, [&options](const Diagnostic& d) {
      return std::find(options.disabled_rules.begin(), options.disabled_rules.end(), d.rule) !=
             options.disabled_rules.end();
    });
  }

  LintResult result;
  result.diagnostics = std::move(load_diags);
  result.diagnostics.insert(result.diagnostics.end(),
                            std::make_move_iterator(run.diagnostics.begin()),
                            std::make_move_iterator(run.diagnostics.end()));
  result.rules_run = std::move(run.rules_run);
  result.rules_skipped = std::move(run.rules_skipped);
  return result;
}

}  // namespace ecohmem::check
