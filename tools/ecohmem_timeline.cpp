// ecohmem-timeline — exports bandwidth timelines (the raw series behind
// Figs. 3 and 7) as CSV for plotting.
//
// Two sources:
//   --app <name>     run an application model and export its per-tier
//                    bandwidth series;
//   --trace <file>   stream a trace file once and export the system
//                    bandwidth series the analyzer rebuilds from it, in
//                    bounded memory (TraceReader::for_each).
//
// Usage:
//   ecohmem-timeline --app <name> --out <file.csv>
//                    [--mode memory|base|bw-aware] [--dram-limit 12GB]
//                    [--iterations N]
//   ecohmem-timeline --trace <trace.trc> --out <file.csv> [--bin-ms N]
//
// CSV columns: time_s, tier, gbs. Both numbers are printed as the
// shortest decimal that reads back as the same double, so the CSV carries
// every bit of each bin (time_s is the bin start in ns divided by 1e9).

#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/common/file.hpp"
#include "ecohmem/common/strings.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/memsim/bandwidth_meter.hpp"
#include "ecohmem/trace/trace_reader.hpp"

using namespace ecohmem;

namespace {

/// Appends the CSV rows of one tier's bandwidth series to `out`.
std::size_t append_rows(std::string& out, const std::vector<memsim::BandwidthPoint>& series,
                        const std::string& tier) {
  for (const auto& p : series) {
    strings::append_double(out, static_cast<double>(p.time) / 1e9);
    out += ',';
    out += tier;
    out += ',';
    strings::append_double(out, p.gbs);
    out += '\n';
  }
  return series.size();
}

/// The --trace path: rebuild the system bandwidth timeline with the
/// analyzer's fold (uncore readings authoritative, PEBS samples the
/// fallback), streaming the file once instead of loading it.
int run_trace_mode(const cli::Args& args) {
  const auto bin_ms = args.get_int_in_range("bin-ms", 10, 1, 60'000);
  if (!bin_ms) return cli::fail_usage(bin_ms.error());

  trace::TraceOpenOptions topt;
  topt.salvage = args.has("salvage");
  auto reader = trace::TraceReader::open(args.get("trace"), topt);
  if (!reader) return cli::fail_load(args.get("trace"), reader.error());
  if (reader->manifest().salvaged) {
    std::printf("%s\n", reader->manifest().summary().c_str());
    if (const std::string skew = reader->manifest().skew_warning(); !skew.empty()) {
      std::fprintf(stderr, "warning: %s\n", skew.c_str());
    }
  }

  analyzer::SystemBandwidthFold bandwidth(static_cast<Ns>(*bin_ms) * 1'000'000);
  std::uint64_t index = 0;
  Status folded;
  if (const auto s = reader->for_each([&](const trace::Event& e) {
        if (folded.ok()) folded = bandwidth.add(index++, e);
      });
      !s.ok()) {
    return cli::fail_load(args.get("trace"), s.error());
  }
  if (!folded.ok()) return cli::fail(folded.error());

  std::string out = "time_s,tier,gbs\n";
  const std::size_t rows = append_rows(out, bandwidth.meter().series(0), "system");
  if (const auto s = common::write_file(args.get("out"), out); !s) {
    return cli::fail(s.error());
  }
  std::printf("%s: %llu events streamed (v%u, %s source), %zu bins -> %s\n",
              args.get("trace").c_str(),
              static_cast<unsigned long long>(reader->event_count()), reader->version(),
              bandwidth.has_uncore() ? "uncore" : "pebs", rows, args.get("out").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv,
                       {"app", "bin-ms", "dram-limit", "iterations", "mode", "out", "trace"},
                       {"salvage", "help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  const bool trace_mode = args.has("trace");
  if (args.has("help") || (!trace_mode && !args.has("app")) || !args.has("out")) {
    std::printf(
        "usage: ecohmem-timeline --app <name> --out <file.csv>\n"
        "                        [--mode memory|base|bw-aware] [--dram-limit 12GB]\n"
        "                        [--iterations N]\n"
        "       ecohmem-timeline --trace <trace.trc> --out <file.csv> [--bin-ms N]\n"
        "                        [--salvage]\n"
        "  --salvage streams whatever blocks are recoverable from a damaged\n"
        "  trace (prints the salvage summary) instead of failing outright.\n");
    return args.has("help") ? 0 : 1;
  }
  if (trace_mode) return run_trace_mode(args);

  const auto iterations = args.get_int_in_range("iterations", 0, 0, 1'000'000);
  if (!iterations) return cli::fail_usage(iterations.error());
  const auto dram_limit = args.get_bytes("dram-limit", 12ull << 30);
  if (!dram_limit) return cli::fail_usage(dram_limit.error());

  apps::AppOptions app_opt;
  app_opt.iterations = static_cast<int>(*iterations);
  runtime::Workload workload;
  try {
    workload = apps::make_app(args.get("app"), app_opt);
  } catch (const std::exception& e) {
    return cli::fail(e.what());
  }
  const auto system = memsim::paper_system(6);
  if (!system) return cli::fail(system.error());

  const std::string mode = args.get("mode", "base");
  runtime::RunMetrics metrics;
  if (mode == "memory") {
    auto run = core::run_memory_mode(workload, *system);
    if (!run) return cli::fail(run.error());
    metrics = std::move(*run);
  } else if (mode == "base" || mode == "bw-aware") {
    core::WorkflowOptions opt;
    opt.dram_limit = *dram_limit;
    opt.bandwidth_aware = mode == "bw-aware";
    auto run = core::run_workflow(workload, *system, opt);
    if (!run) return cli::fail(run.error());
    metrics = std::move(run->production_metrics);
  } else {
    return cli::fail("unknown mode '" + mode + "' (memory|base|bw-aware)");
  }

  std::string out = "time_s,tier,gbs\n";
  std::size_t rows = 0;
  for (std::size_t t = 0; t < metrics.bandwidth.tier_count(); ++t) {
    rows += append_rows(out, metrics.bandwidth.series(t), system->tier(t).name());
  }
  if (const auto s = common::write_file(args.get("out"), out); !s) {
    return cli::fail(s.error());
  }
  std::printf("%s %s run: %.2f s simulated, %zu samples -> %s\n", args.get("app").c_str(),
              mode.c_str(), static_cast<double>(metrics.total_ns) * 1e-9, rows,
              args.get("out").c_str());
  return 0;
}
