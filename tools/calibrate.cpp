// Developer tool: prints the calibration summary of every application
// model against the paper's published targets (Table VI and Fig. 6 /
// Table VIII). Used while tuning the workload models; kept in the repo so
// model changes can be re-validated quickly.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/baselines/kernel_tiering.hpp"
#include "ecohmem/baselines/profdp.hpp"
#include "ecohmem/core/ecohmem.hpp"

using namespace ecohmem;

namespace {

constexpr Bytes GiB = 1024ull * 1024 * 1024;

void report_app(const std::string& name) {
  const runtime::Workload w = apps::make_app(name);
  auto system = memsim::paper_system(6);
  if (!system) {
    std::printf("%s: system error: %s\n", name.c_str(), system->tier_count() ? "?" : "init");
    return;
  }

  auto baseline = core::run_memory_mode(w, *system);
  if (!baseline) {
    std::printf("%-14s memory-mode FAILED: %s\n", name.c_str(), baseline.error().c_str());
    return;
  }
  std::printf("%-14s memmode: %7.1fs  membound=%4.1f%%  hit=%4.1f%%  heap=%5.1fGiB\n",
              name.c_str(), static_cast<double>(baseline->total_ns) * 1e-9,
              baseline->memory_bound_fraction() * 100.0, baseline->dram_cache_hit_ratio * 100.0,
              static_cast<double>(w.heap_high_water) / static_cast<double>(GiB));

  struct Cfg {
    const char* label;
    Bytes dram;
    double store_coef;
    bool bw_aware;
  };
  // Loads+stores uses C_store = 0.125 (stores are sampled as 8-byte
  // instructions; a line carries 8 of them).
  const std::vector<Cfg> cfgs = {
      {"L 12G", 12 * GiB, 0.0, false},   {"L 8G", 8 * GiB, 0.0, false},
      {"L 4G", 4 * GiB, 0.0, false},     {"LS 12G", 12 * GiB, 0.125, false},
      {"LS 8G", 8 * GiB, 0.125, false},  {"LS 4G", 4 * GiB, 0.125, false},
      {"BW 12G", 12 * GiB, 0.0, true},   {"BWS 12G", 12 * GiB, 0.125, true},
  };
  std::printf("  %-14s", "");
  for (const auto& cfg : cfgs) {
    core::WorkflowOptions opt;
    opt.dram_limit = cfg.dram;
    opt.store_coef = cfg.store_coef;
    opt.bandwidth_aware = cfg.bw_aware;
    auto result = core::run_workflow(w, *system, opt);
    if (!result) {
      std::printf(" %s=ERR(%s)", cfg.label, result.error().c_str());
      continue;
    }
    std::printf(" %s=%.2f", cfg.label, result->speedup());
    if (result->production_metrics.oom_redirects > 0) {
      std::printf("(oom:%llu)",
                  static_cast<unsigned long long>(result->production_metrics.oom_redirects));
    }
  }
  std::printf("\n");
}

void dump_sites(const std::string& name, double store_coef, bool bw_aware) {
  const runtime::Workload w = apps::make_app(name);
  auto system = memsim::paper_system(6);
  core::WorkflowOptions opt;
  opt.dram_limit = name == "openfoam" ? 11 * GiB : 12 * GiB;
  opt.store_coef = store_coef;
  opt.bandwidth_aware = bw_aware;
  auto result = core::run_workflow(w, *system, opt);
  if (!result) {
    std::printf("workflow failed: %s\n", result.error().c_str());
    return;
  }
  std::printf("%s: speedup=%.3f  observed_peak=%.2f GB/s  swaps=%zu streamD=%zu\n", name.c_str(),
              result->speedup(), result->analysis.observed_peak_bw_gbs,
              result->bandwidth_aware ? result->bandwidth_aware->swaps : 0,
              result->bandwidth_aware ? result->bandwidth_aware->streaming_moved : 0);
  std::printf("%-34s %6s %9s %8s %8s %7s %7s %7s %6s %5s\n", "site", "allocs", "size",
              "loadM", "storeM", "dens", "allocBW", "execBW", "tier", "cat");
  for (const auto& s : result->analysis.sites) {
    const std::string& tier = result->placement.tier_of(s.stack);
    std::string cat = "-";
    if (result->bandwidth_aware) {
      for (const auto& c : result->bandwidth_aware->categories) {
        if (c.stack == s.stack) cat = advisor::to_string(c.category);
      }
    }
    std::string label = "?";
    for (const auto& site : w.sites) {
      if (site.stack == s.callstack) label = site.label;
    }
    std::printf("%-34s %6llu %9.2fG %7.1fM %7.1fM %7.3f %7.2f %7.2f %6s %5s\n", label.c_str(),
                static_cast<unsigned long long>(s.alloc_count),
                static_cast<double>(std::max(s.peak_live_bytes, s.max_size)) / 1e9,
                s.load_misses / 1e6, s.store_misses / 1e6, s.density(1.0, store_coef),
                s.alloc_time_system_bw_gbs, s.exec_time_system_bw_gbs, tier.c_str(),
                cat.c_str());
  }
}

void dump_kernels(const std::string& name) {
  const runtime::Workload w = apps::make_app(name);
  auto system = memsim::paper_system(6);
  const Bytes dram = name == "openfoam" ? 11 * GiB : 12 * GiB;

  auto memmode = core::run_memory_mode(w, *system);
  core::WorkflowOptions base_opt;
  base_opt.dram_limit = dram;
  auto base = core::run_workflow(w, *system, base_opt);
  core::WorkflowOptions bw_opt = base_opt;
  bw_opt.bandwidth_aware = true;
  auto bw = core::run_workflow(w, *system, bw_opt);
  if (!memmode || !base || !bw) {
    std::printf("run failed\n");
    return;
  }
  std::printf("%s kernels (seconds): memmode | base | bw-aware\n", name.c_str());
  for (const auto& f : memmode->functions) {
    const auto* fb = base->production_metrics.find_function(f.function);
    const auto* fw = bw->production_metrics.find_function(f.function);
    std::printf("  %-32s %8.1f %8.1f %8.1f   lat %5.0f %5.0f %5.0f\n", f.function.c_str(),
                cycles_to_ns(f.cycles) * 1e-9,
                fb != nullptr ? cycles_to_ns(fb->cycles) * 1e-9 : 0.0,
                fw != nullptr ? cycles_to_ns(fw->cycles) * 1e-9 : 0.0,
                f.avg_load_latency_ns(),
                fb != nullptr ? fb->avg_load_latency_ns() : 0.0,
                fw != nullptr ? fw->avg_load_latency_ns() : 0.0);
  }
}

void dump_baselines(const std::string& name) {
  const runtime::Workload w = apps::make_app(name);
  auto system = memsim::paper_system(6);
  auto memmode = core::run_memory_mode(w, *system);
  if (!memmode) {
    std::printf("memmode failed\n");
    return;
  }

  // Kernel tiering.
  baselines::KernelTieringMode tiering(&*system, 0, system->fallback_index());
  runtime::ExecutionEngine engine(&*system, {});
  auto tier_metrics = engine.run(w, tiering);

  // ProfDP best-of-4.
  baselines::ProfDPOptions popt;
  popt.dram_limit = 12 * GiB;
  auto variants = baselines::profdp_placements(w, *system, {}, popt);

  std::printf("%-14s tiering=%.2f (usable dram %.1f GiB, migrated %.0f GB)\n", name.c_str(),
              tier_metrics ? tier_metrics->speedup_over(*memmode) : 0.0,
              static_cast<double>(tiering.usable_dram()) / static_cast<double>(GiB),
              tiering.migrated_bytes() / 1e9);
  if (!variants) {
    std::printf("  profdp failed: %s\n", variants.error().c_str());
    return;
  }
  for (const auto& v : *variants) {
    auto run = core::run_with_placement(w, *system, v.placement, 12 * GiB);
    std::printf("  profdp %-14s %.2f\n", v.name.c_str(),
                run ? run->speedup_over(*memmode) : 0.0);
  }
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: calibrate [-v | -k | -b] [app...]\n"
               "  (no flag)  speedup summary per DRAM limit and configuration\n"
               "  -v         per-site dump of the bandwidth-aware workflow\n"
               "  -k         per-kernel times: memory mode, base, bandwidth-aware\n"
               "  -b         kernel tiering and ProfDP baselines\n"
               "  app        one of the application models (default: all)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = apps::app_names();
  std::vector<std::string> names;
  bool verbose = false;
  double store_coef = 0.125;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(stdout);
      return 0;
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg == "-k") {
      verbose = false;
      store_coef = -1.0;  // sentinel: kernel dump
    } else if (arg == "-b") {
      verbose = false;
      store_coef = -2.0;  // sentinel: baselines dump
    } else if (std::find(known.begin(), known.end(), arg) != known.end()) {
      names.emplace_back(arg);
    } else if (arg.starts_with('-')) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      print_usage(stderr);
      return 2;
    } else {
      std::fprintf(stderr, "error: unknown application model: %s\nvalid apps:", arg.c_str());
      for (const auto& name : known) std::fprintf(stderr, " %s", name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (names.empty()) names = known;
  for (const auto& name : names) {
    if (verbose) {
      dump_sites(name, store_coef, /*bw_aware=*/true);
    } else if (store_coef == -2.0) {
      dump_baselines(name);
    } else if (store_coef < 0.0) {
      dump_kernels(name);
    } else {
      report_app(name);
    }
  }
  return 0;
}
