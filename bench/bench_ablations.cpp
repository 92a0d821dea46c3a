// Ablations of the design decisions called out in DESIGN.md §5:
//   D2 — store coefficient sweep (CloverLeaf3D),
//   D3 — bandwidth-aware post-pass on/off across all apps,
//   D5 — PEBS sampling-rate sweep (placement robustness),
//   plus the Advisor footprint-accounting mode (max_size vs peak_live,
//   the KNL-era heuristic vs this work's default).

#include <cstdio>

#include "bench_common.hpp"
#include "ecohmem/advisor/knapsack.hpp"

using namespace ecohmem;

namespace {

void ablate_store_coef() {
  std::printf("\n--- D2: store coefficient sweep (CloverLeaf3D, 12 GB) ---\n");
  const auto sys = *memsim::paper_system(6);
  const runtime::Workload w = apps::make_cloverleaf3d();
  std::printf("%10s %8s\n", "C_store", "speedup");
  for (const double c : {0.0, 0.03125, 0.0625, 0.125, 0.25, 0.5}) {
    const auto run = bench::run_config(w, sys, "", 12 * bench::kGiB, c, false);
    std::printf("%10.4f %8.2f\n", c, run.speedup);
  }
}

void ablate_bw_aware() {
  std::printf("\n--- D3: bandwidth-aware post-pass on/off (all apps) ---\n");
  const auto sys = *memsim::paper_system(6);
  std::printf("%-14s %8s %8s %8s\n", "app", "base", "bw-aware", "delta%");
  for (const auto& name : apps::app_names()) {
    const runtime::Workload w = apps::make_app(name);
    const Bytes dram = name == "openfoam" ? 11 * bench::kGiB : 12 * bench::kGiB;
    const auto base = bench::run_config(w, sys, "", dram, 0.0, false);
    const auto bw = bench::run_config(w, sys, "", dram, 0.0, true);
    std::printf("%-14s %8.2f %8.2f %+7.1f\n", name.c_str(), base.speedup, bw.speedup,
                (bw.speedup / base.speedup - 1.0) * 100.0);
  }
}

void ablate_sampling_rate() {
  std::printf("\n--- D5: PEBS sampling rate sweep (MiniFE, 12 GB, Loads) ---\n");
  const auto sys = *memsim::paper_system(6);
  const runtime::Workload w = apps::make_minife();
  std::printf("%10s %8s\n", "rate(Hz)", "speedup");
  for (const double hz : {10.0, 30.0, 100.0, 300.0, 1000.0}) {
    core::WorkflowOptions opt;
    opt.dram_limit = 12 * bench::kGiB;
    opt.sample_rate_hz = hz;
    const auto result = core::run_workflow(w, sys, opt);
    std::printf("%10.0f %8.2f\n", hz, result ? result->speedup() : 0.0);
  }
  std::printf("(expected: stable placement quality once the rate gives each hot site "
              "enough samples — the paper profiles at 100 Hz)\n");
}

void ablate_footprint_mode() {
  std::printf("\n--- footprint accounting: max_size (KNL-era) vs peak_live (default) ---\n");
  const auto sys = *memsim::paper_system(6);
  std::printf("%-14s %10s %10s %12s\n", "app", "max_size", "peak_live", "oom(max_size)");
  for (const std::string name : {"lulesh", "openfoam", "cloverleaf3d"}) {
    const runtime::Workload w = apps::make_app(name);
    const Bytes dram = name == "openfoam" ? 11 * bench::kGiB : 12 * bench::kGiB;

    double speedups[2] = {0.0, 0.0};
    std::uint64_t ooms = 0;
    // run_workflow always uses peak_live; emulate max_size by running the
    // advisor manually. Profile once via the workflow (its analysis is
    // reused), then place with each mode.
    core::WorkflowOptions opt;
    opt.dram_limit = dram;
    const auto base = core::run_workflow(w, sys, opt);
    if (!base) continue;
    speedups[1] = base->speedup();

    advisor::AdvisorConfig cfg = core::advisor_config(sys, dram, 0.0);
    cfg.footprint_mode = advisor::FootprintMode::kMaxSize;
    const auto placement = advisor::place_by_density(base->analysis.sites, cfg);
    if (placement) {
      const auto run = core::run_with_placement(w, sys, *placement, dram);
      if (run) {
        speedups[0] = run->speedup_over(base->baseline_metrics);
        ooms = run->oom_redirects;
      }
    }
    std::printf("%-14s %10.2f %10.2f %12llu\n", name.c_str(), speedups[0], speedups[1],
                static_cast<unsigned long long>(ooms));
  }
  std::printf("(max_size under-accounts multi-instance sites; OOM redirects show the "
              "fallback machinery absorbing the overflow — the paper's LAMMPS/OpenFOAM "
              "DRAM-limit friction)\n");
}

void ablate_exact_knapsack() {
  std::printf("\n--- greedy density relaxation vs exact 0/1 DP knapsack ---\n");
  const auto sys = *memsim::paper_system(6);
  std::printf("%-14s %10s %10s\n", "app", "greedy", "exact-DP");
  for (const std::string name : {"minife", "hpcg", "cloverleaf3d", "openfoam"}) {
    const runtime::Workload w = apps::make_app(name);
    const Bytes dram = name == "openfoam" ? 11 * bench::kGiB : 12 * bench::kGiB;

    core::WorkflowOptions opt;
    opt.dram_limit = dram;
    const auto base = core::run_workflow(w, sys, opt);
    if (!base) continue;

    const auto cfg = core::advisor_config(sys, dram, 0.0);
    const auto dp_placement = advisor::place_exact_dp(base->analysis.sites, cfg);
    double dp_speedup = 0.0;
    if (dp_placement) {
      const auto run = core::run_with_placement(w, sys, *dp_placement, dram);
      if (run) dp_speedup = run->speedup_over(base->baseline_metrics);
    }
    std::printf("%-14s %10.2f %10.2f\n", name.c_str(), base->speedup(), dp_speedup);
  }
  std::printf("(the paper's greedy relaxation is near-optimal on these site\n"
              " populations; DP mainly repacks ties)\n");
}

}  // namespace

int main() {
  bench::print_header("bench_ablations", "DESIGN.md §5 ablation studies (D2/D3/D5 + footprint)");
  ablate_store_coef();
  ablate_bw_aware();
  ablate_sampling_rate();
  ablate_footprint_mode();
  ablate_exact_knapsack();
  return 0;
}
