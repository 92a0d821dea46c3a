// ecohmem-advisor — the HMem Advisor stage as a command-line tool
// (the Paramedir + Advisor boxes of Fig. 1).
//
// Reads a trace file written by ecohmem-profile, aggregates it, runs the
// density knapsack (optionally followed by the bandwidth-aware pass of
// §VII) and writes the FlexMalloc placement report.
//
// Usage:
//   ecohmem-advisor --trace <trace.trc> --out <report.txt>
//                   [--config <advisor.ini>] [--dram-limit 12GB]
//                   [--store-coef 0.125] [--bandwidth-aware]
//                   [--peak-pmem-bw GBS]
//                   [--policy greedy|learned] [--model <model.ehm>]
//
// Without --config, a two-tier dram/pmem config is synthesized from
// --dram-limit and --store-coef. The report is written in BOM format
// (the trace carries no symbol tables, so the human-readable format is
// not available from this tool).

#include <cstdio>
#include <utility>

#include "cli_common.hpp"
#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/analyzer/site_report.hpp"
#include "ecohmem/learn/model.hpp"
#include "ecohmem/learn/policy.hpp"
#include "ecohmem/trace/trace_reader.hpp"

using namespace ecohmem;

int main(int argc, char** argv) {
  const cli::Args args(argc, argv,
                       {"config", "csv", "dram-limit", "min-coverage", "model", "out",
                        "peak-pmem-bw", "policy", "store-coef", "trace"},
                       {"bandwidth-aware", "dump-sites", "salvage", "help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help") || !args.has("trace") || !args.has("out")) {
    std::printf(
        "usage: ecohmem-advisor --trace <trace.trc> --out <report.txt>\n"
        "                       [--config <advisor.ini>] [--dram-limit 12GB]\n"
        "                       [--store-coef 0.125] [--bandwidth-aware]\n"
        "                       [--peak-pmem-bw GBS] [--dump-sites] [--csv <file>]\n"
        "                       [--salvage] [--min-coverage F]\n"
        "                       [--policy greedy|learned] [--model <model.ehm>]\n"
        "  --salvage recovers what it can from a corrupt/truncated trace and\n"
        "  fails only when coverage drops below --min-coverage (default 0.9).\n"
        "  --policy learned ranks sites with a trained model (ecohmem-train)\n"
        "  instead of the greedy density heuristic; the report gains a\n"
        "  '# model = <hash>' header stamp (docs/learned.md).\n");
    return args.has("help") ? 0 : 1;
  }

  const std::string policy = args.get("policy", "greedy");
  if (policy != "greedy" && policy != "learned") {
    return cli::fail_usage("--policy must be 'greedy' or 'learned', got '" + policy + "'");
  }
  if (policy == "learned" && !args.has("model")) {
    return cli::fail_usage("--policy learned requires --model <model.ehm>");
  }
  if (policy != "learned" && args.has("model")) {
    return cli::fail_usage("--model is only meaningful with --policy learned");
  }
  // An unusable --model value (missing, truncated or corrupt file) is a
  // usage error like any other invalid flag value: exit 2, with the
  // loader's offset-bearing message (docs/cli.md).
  learn::Model model;
  if (policy == "learned") {
    auto loaded = learn::load_model(args.get("model"));
    if (!loaded) return cli::fail_usage("--model " + args.get("model") + ": " + loaded.error());
    model = std::move(*loaded);
  }

  const auto min_coverage = args.get_double("min-coverage", 0.9);
  if (!min_coverage) return cli::fail_usage(min_coverage.error());
  if (*min_coverage < 0.0 || *min_coverage > 1.0) {
    return cli::fail("--min-coverage must be in [0, 1]");
  }
  const auto dram_limit = args.get_bytes("dram-limit", 12ull << 30);
  if (!dram_limit) return cli::fail_usage(dram_limit.error());
  const auto store_coef = args.get_double("store-coef", 0.0);
  if (!store_coef) return cli::fail_usage(store_coef.error());
  const auto flag_config = advisor::AdvisorConfig::dram_pmem(*dram_limit, *store_coef);
  if (const auto bad = flag_config.validate(); !bad.empty()) {
    return cli::fail_usage("--dram-limit/--store-coef: " + bad.front());
  }
  const auto peak_pmem_bw = args.get_double("peak-pmem-bw", 0.0);
  if (!peak_pmem_bw) return cli::fail_usage(peak_pmem_bw.error());

  // The trace is mmapped and decoded block by block. With --salvage a
  // damaged trace is read fail-soft and the analysis is stamped with its
  // coverage.
  trace::TraceOpenOptions topt;
  topt.salvage = args.has("salvage");
  auto reader = trace::TraceReader::open(args.get("trace"), topt);
  if (!reader) return cli::fail_load(args.get("trace"), reader.error());
  const auto bundle = reader->read_all();
  if (!bundle) return cli::fail_load(args.get("trace"), bundle.error());

  if (reader->manifest().salvaged) {
    std::printf("%s\n", reader->manifest().summary().c_str());
    if (reader->manifest().coverage() < *min_coverage) {
      return cli::fail("salvage coverage " +
                       std::to_string(reader->manifest().coverage() * 100.0) +
                       "% of " + args.get("trace") + " is below --min-coverage " +
                       std::to_string(*min_coverage * 100.0) + "%");
    }
  }

  analyzer::AnalyzerOptions aopt;
  aopt.coverage = bundle->coverage;
  const auto analysis = analyzer::analyze(bundle->trace, aopt);
  if (!analysis) return cli::fail(analysis.error());

  if (args.has("dump-sites")) {
    std::printf("%s", analyzer::site_table_to_string(*analysis, bundle->modules).c_str());
  }
  if (args.has("csv")) {
    if (const auto s = analyzer::save_site_csv(args.get("csv"), *analysis, bundle->modules);
        !s) {
      return cli::fail(s.error());
    }
  }

  advisor::AdvisorConfig config;
  if (args.has("config")) {
    const auto file = Config::load(args.get("config"));
    if (!file) return cli::fail(file.error());
    auto parsed = advisor::AdvisorConfig::from_config(*file);
    if (!parsed) return cli::fail(parsed.error());
    config = std::move(*parsed);
  } else {
    config = flag_config;
  }

  auto placement = policy == "learned"
                       ? learn::place_by_ranker(*analysis, config, model)
                       : advisor::place_by_density(analysis->sites, config);
  if (!placement) return cli::fail(placement.error());
  if (policy == "learned") placement->model_stamp = learn::model_content_hash(model);

  std::size_t swaps = 0;
  std::size_t streaming = 0;
  if (args.has("bandwidth-aware")) {
    advisor::BandwidthAwareOptions bw;
    bw.peak_pmem_bw_gbs =
        args.has("peak-pmem-bw") ? *peak_pmem_bw : analysis->observed_peak_bw_gbs;
    bw.dram_tier = config.tiers.front().name;
    bw.pmem_tier = config.fallback_tier().name;
    auto refined =
        advisor::place_bandwidth_aware(analysis->sites, std::move(*placement), config, bw);
    if (!refined) return cli::fail(refined.error());
    swaps = refined->swaps;
    streaming = refined->streaming_moved;
    *placement = std::move(refined->placement);
  }

  if (const auto s = advisor::save_report(args.get("out"), *placement,
                                          advisor::ReportFormat::kBom, bundle->modules);
      !s) {
    return cli::fail(s.error());
  }

  std::printf("analyzed %zu sites (%zu events); %s placement written to %s\n",
              analysis->sites.size(), bundle->trace.events.size(), policy.c_str(),
              args.get("out").c_str());
  if (policy == "learned") {
    std::printf("  model %s (%zu corpus apps)\n", placement->model_stamp.c_str(),
                model.corpus.size());
  }
  for (const auto& tier : config.tiers) {
    std::printf("  %-8s %10llu MB charged (limit %llu MB)\n", tier.name.c_str(),
                static_cast<unsigned long long>(placement->footprint_in(tier.name) >> 20),
                static_cast<unsigned long long>(tier.limit >> 20));
  }
  if (args.has("bandwidth-aware")) {
    std::printf("  bandwidth-aware: %zu swaps, %zu Streaming-D moves (observed peak %.2f GB/s)\n",
                swaps, streaming, analysis->observed_peak_bw_gbs);
  }
  return 0;
}
