// ecohmem-profile — the Extrae stage as a command-line tool.
//
// Runs an application model under the memory-mode baseline with the
// profiler attached and writes the trace file the Advisor stage consumes.
//
// Usage:
//   ecohmem-profile --app <name> --out <trace.trc>
//                   [--iterations N] [--rate HZ] [--seed S]
//                   [--pmem-dimms 6] [--no-stores]
//
// Example:
//   ecohmem-profile --app lulesh --out /tmp/lulesh.trc

#include <cstdio>
#include <limits>

#include "cli_common.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/trace/trace_file.hpp"

using namespace ecohmem;

int main(int argc, char** argv) {
  const cli::Args args(argc, argv,
                       {"app", "block-events", "format", "iterations", "out", "pmem-dimms", "rate",
                        "seed"},
                       {"no-stores", "compact", "compress", "help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help") || !args.has("app") || !args.has("out")) {
    std::printf(
        "usage: ecohmem-profile --app <name> --out <trace.trc>\n"
        "                       [--iterations N] [--rate HZ] [--seed S]\n"
        "                       [--pmem-dimms 6] [--no-stores]\n"
        "                       [--format v1|v2|v3] [--compact] [--block-events N]\n"
        "                       [--compress]\n"
        "  --format v3 writes the indexed block format (mmap random access,\n"
        "  parallel decode); --compact is the v2 shorthand kept for\n"
        "  compatibility. --block-events sets the v3 block granularity.\n"
        "  --compress bit-packs each v3 block's columns (v3 only).\n"
        "apps: ");
    for (const auto& a : apps::app_names()) std::printf("%s ", a.c_str());
    std::printf("\n");
    return args.has("help") ? 0 : 1;
  }

  const auto iterations = args.get_int_in_range("iterations", 0, 0, 1'000'000);
  if (!iterations) return cli::fail_usage(iterations.error());
  const auto pmem_dimms = args.get_int_in_range("pmem-dimms", 6, 1, 64);
  if (!pmem_dimms) return cli::fail_usage(pmem_dimms.error());
  const auto seed = args.get_int_in_range("seed", 0x5eed, 0, std::numeric_limits<long long>::max());
  if (!seed) return cli::fail_usage(seed.error());
  const auto rate = args.get_double("rate", 100.0);
  if (!rate) return cli::fail_usage(rate.error());

  apps::AppOptions app_opt;
  app_opt.iterations = static_cast<int>(*iterations);
  runtime::Workload workload;
  try {
    workload = apps::make_app(args.get("app"), app_opt);
  } catch (const std::exception& e) {
    return cli::fail(e.what());
  }

  const auto system = memsim::paper_system(static_cast<int>(*pmem_dimms));
  if (!system) return cli::fail(system.error());

  profiler::ProfilerOptions popt;
  popt.sample_rate_hz = *rate;
  popt.seed = static_cast<std::uint64_t>(*seed);
  popt.sample_stores = !args.has("no-stores");
  profiler::Profiler prof(popt);

  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  memsim::DramCacheModel cache(system->tier(0).capacity());
  runtime::MemoryModeExec mode(&*system, 0, system->fallback_index(), cache);
  runtime::ExecutionEngine engine(&*system, eopt);
  const auto metrics = engine.run(workload, mode);
  if (!metrics) return cli::fail("profiling run failed: " + metrics.error());

  const auto block_events = args.get_int_in_range("block-events", 64 * 1024, 1, 1 << 30);
  if (!block_events) return cli::fail_usage(block_events.error());

  const trace::Trace t = prof.take_trace();
  trace::TraceWriteOptions wopt;
  const std::string format = args.get("format", args.has("compact") ? "v2" : "v1");
  if (format == "v3") {
    wopt.indexed = true;
    wopt.block_events = static_cast<std::uint64_t>(*block_events);
    wopt.compress = args.has("compress");
  } else if (format == "v2") {
    wopt.compact = true;
  } else if (format != "v1") {
    return cli::fail("unknown --format '" + format + "' (v1|v2|v3)");
  }
  if (args.has("compress") && format != "v3") {
    return cli::fail_usage("--compress requires --format v3 (per-block compression lives in "
                           "the indexed footer; v1/v2 have no block index)");
  }
  if (const auto s = trace::save_trace(args.get("out"), t, *workload.modules, wopt); !s) {
    return cli::fail(s.error());
  }

  std::printf("profiled %s: %.1f s simulated, %zu events, %zu call stacks -> %s\n",
              workload.name.c_str(), static_cast<double>(metrics->total_ns) * 1e-9,
              t.events.size(), t.stacks.size(), args.get("out").c_str());
  std::printf("baseline (memory mode): %.3f s, DRAM cache hit %.1f%%\n",
              static_cast<double>(metrics->total_ns) * 1e-9,
              metrics->dram_cache_hit_ratio * 100.0);
  return 0;
}
