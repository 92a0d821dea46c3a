// ecohmem-autotune — parallel search over Advisor configurations for an
// application model; prints the whole grid and the winner.
//
// Usage:
//   ecohmem-autotune --app <name> [--iterations N] [--parallelism P]

#include <cstdio>

#include "cli_common.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/autotune.hpp"

using namespace ecohmem;

int main(int argc, char** argv) {
  const cli::Args args(argc, argv,
                       {"app", "iterations", "parallelism"},
                       {"help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help") || !args.has("app")) {
    std::printf("usage: ecohmem-autotune --app <name> [--iterations N] [--parallelism P]\n");
    return args.has("help") ? 0 : 1;
  }

  const auto iterations = args.get_int_in_range("iterations", 0, 0, 1'000'000);
  if (!iterations) return cli::fail_usage(iterations.error());
  const auto parallelism = args.get_int_in_range("parallelism", 0, 0, 1024);
  if (!parallelism) return cli::fail_usage(parallelism.error());

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

  const auto result =
      core::autotune(workload, *system, {}, static_cast<unsigned>(*parallelism));
  if (!result) return cli::fail(result.error());

  std::printf("%12s %10s %10s %10s\n", "dram", "C_store", "bw-aware", "speedup");
  for (const auto& c : result->all) {
    std::printf("%10lluGB %10.3f %10s %10.2f%s\n",
                static_cast<unsigned long long>(c.options.dram_limit >> 30),
                c.options.store_coef, c.options.bandwidth_aware ? "yes" : "no", c.speedup,
                c.ok ? "" : (" ERR " + c.error).c_str());
  }
  std::printf("\nbest: %llu GB, C_store=%.3f, bandwidth-aware=%s -> %.2fx over memory mode\n",
              static_cast<unsigned long long>(result->best.options.dram_limit >> 30),
              result->best.options.store_coef,
              result->best.options.bandwidth_aware ? "yes" : "no", result->best.speedup);
  return 0;
}
