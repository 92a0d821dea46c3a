#pragma once

/// \file context.hpp
/// The artifact bundle a lint run checks.
///
/// Every pointer is optional: rules declare which artifacts they need via
/// `Rule::applicable` and are skipped when an input is absent. The
/// context does not own the artifacts; the lint driver (lint.hpp) or the
/// embedding tool keeps them alive for the duration of the run.

#include <cstdint>
#include <string>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/check/migration_log.hpp"
#include "ecohmem/check/sites_csv.hpp"
#include "ecohmem/common/config.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/learn/ranker.hpp"
#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/salvage.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::check {

struct CheckContext {
  /// Profile trace + the module table it was captured against.
  const trace::TraceBundle* bundle = nullptr;

  /// Analyzer output derived from `bundle` (set by the lint driver when
  /// the trace replays cleanly; absent when trace-level rules failed).
  const analyzer::AnalysisResult* analysis = nullptr;

  /// Analyzer site CSV export, re-parsed.
  const SiteCsv* sites = nullptr;

  /// Advisor placement report as FlexMalloc would parse it.
  const flexmalloc::ParsedReport* report = nullptr;

  /// Advisor configuration (tier capacities, coefficients).
  const advisor::AdvisorConfig* config = nullptr;

  /// Online placement policy INI, kept raw so the online-* rules can
  /// report every violation instead of stopping at the loader's first.
  const Config* online = nullptr;

  /// Ranking model (ecohmem-train output), for checking a learned-policy
  /// report's `# model = <hash>` stamp against the model it claims.
  const learn::Model* model = nullptr;

  /// Migration CSV (`ecohmem-run --migration-log`), for auditing the
  /// online policy's conservation identities and sub-range moves.
  const MigrationLog* migration_log = nullptr;

  /// v3 footer index of the trace file, decoded leniently
  /// (trace::codec::decode_index: trailer magic and entry-span
  /// arithmetic only), with the two header fields it is checked
  /// against. Set even when the strict trace load failed on the index,
  /// so the trace-v3-index rule can report every fault of
  /// `trace::codec::index_issues`; the strict reader stops at the first.
  const trace::codec::IndexInfo* trace_index = nullptr;
  std::uint64_t trace_events_offset = 0;       ///< first byte after the header
  std::uint64_t trace_header_event_count = 0;  ///< event count the header claims

  /// Salvage manifest when `bundle` came from a salvage-mode read (the
  /// strict load failed and the lint driver fell back to salvage).
  /// Drives the trace-salvage-coverage rule; null for strict loads.
  const trace::SalvageManifest* salvage = nullptr;

  /// Minimum acceptable salvage coverage (fraction of declared events
  /// recovered) before trace-salvage-coverage reports an error rather
  /// than a warning. Copied from CheckOptions by the lint driver.
  double min_salvage_coverage = 0.9;

  /// Labels used in diagnostics (file paths when loaded from disk).
  std::string trace_name = "trace";
  std::string sites_name = "sites";
  std::string report_name = "report";
  std::string config_name = "config";
  std::string online_name = "online-policy";
  std::string model_name = "model";
  std::string migration_log_name = "migration-log";
};

}  // namespace ecohmem::check
