// ecohmem-timeline — exports bandwidth timelines (the raw series behind
// Figs. 3 and 7) as CSV for plotting.
//
// Two sources:
//   --app <name>     run an application model and export its per-tier
//                    bandwidth series;
//   --trace <file>   stream an existing trace file and export the
//                    reconstructed system bandwidth series. The trace is
//                    never materialized in memory: TraceReader::for_each
//                    decodes it in bounded chunks and releases the mapped
//                    pages it has consumed, so peak RSS stays flat however
//                    large the trace is.
//
// Usage:
//   ecohmem-timeline --app <name> --out <file.csv>
//                    [--mode memory|base|bw-aware] [--dram-limit 12GB]
//                    [--iterations N]
//   ecohmem-timeline --trace <trace.trc> --out <file.csv> [--bin-ms N]
//
// CSV columns: time_s, tier, gbs

#include <cstdio>
#include <sstream>

#include "cli_common.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/common/file.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/memsim/bandwidth_meter.hpp"
#include "ecohmem/trace/trace_reader.hpp"

using namespace ecohmem;

namespace {

/// The --trace path: reconstruct the system bandwidth timeline exactly
/// as the analyzer's prescan does (uncore readings authoritative, PEBS
/// fallback otherwise), streaming the file twice instead of loading it.
int run_trace_mode(const cli::Args& args) {
  const auto bin_ms = args.get_int_in_range("bin-ms", 10, 1, 60'000);
  if (!bin_ms) return cli::fail_usage(bin_ms.error());

  trace::TraceOpenOptions topt;
  topt.salvage = args.has("salvage");
  auto reader = trace::TraceReader::open(args.get("trace"), topt);
  if (!reader) return cli::fail_load(args.get("trace"), reader.error());
  if (reader->manifest().salvaged) {
    std::printf("%s\n", reader->manifest().summary().c_str());
  }

  // Pass 1: does the trace carry uncore readings? (Early-exits on the
  // first one in spirit; the streaming API visits all events, which is
  // still O(chunk) memory.)
  bool has_uncore = false;
  if (const auto s = reader->for_each([&](const trace::Event& e) {
        has_uncore = has_uncore || std::holds_alternative<trace::UncoreBwEvent>(e);
      });
      !s.ok()) {
    return cli::fail_load(args.get("trace"), s.error());
  }

  // Pass 2: fold the traffic into fixed-width bins.
  memsim::BandwidthMeter meter(1, static_cast<Ns>(*bin_ms) * 1'000'000);
  if (const auto s = reader->for_each([&](const trace::Event& e) {
        if (const auto* u = std::get_if<trace::UncoreBwEvent>(&e)) {
          const Ns t0 = u->time > u->period_ns ? u->time - u->period_ns : 0;
          meter.add(0, t0, u->time,
                    (u->read_gbs + u->write_gbs) * static_cast<double>(u->period_ns));
        } else if (const auto* smp = std::get_if<trace::SampleEvent>(&e)) {
          if (!has_uncore) {
            meter.add(0, smp->time, smp->time + 1,
                      smp->weight * static_cast<double>(kCacheLine));
          }
        }
      });
      !s.ok()) {
    return cli::fail_load(args.get("trace"), s.error());
  }

  std::ostringstream out;
  out << "time_s,tier,gbs\n";
  std::size_t rows = 0;
  for (const auto& p : meter.series(0)) {
    out << static_cast<double>(p.time) * 1e-9 << ",system," << p.gbs << '\n';
    ++rows;
  }
  if (const auto s = common::write_file(args.get("out"), out.str()); !s) {
    return cli::fail(s.error());
  }
  std::printf("%s: %llu events streamed (v%u, %s source), %zu bins -> %s\n",
              args.get("trace").c_str(),
              static_cast<unsigned long long>(reader->event_count()), reader->version(),
              has_uncore ? "uncore" : "pebs", rows, args.get("out").c_str());
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

  std::ostringstream out;
  out << "time_s,tier,gbs\n";
  std::size_t rows = 0;
  for (std::size_t t = 0; t < metrics.tier_bw.size(); ++t) {
    const std::string& tier = system->tier(t).name();
    for (const auto& p : metrics.tier_bw[t]) {
      out << static_cast<double>(p.time) * 1e-9 << ',' << tier << ',' << p.gbs << '\n';
      ++rows;
    }
  }
  if (const auto s = common::write_file(args.get("out"), out.str()); !s) {
    return cli::fail(s.error());
  }
  std::printf("%s %s run: %.2f s simulated, %zu samples -> %s\n", args.get("app").c_str(),
              mode.c_str(), static_cast<double>(metrics.total_ns) * 1e-9, rows,
              args.get("out").c_str());
  return 0;
}
