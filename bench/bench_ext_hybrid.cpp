// Extension study: the paper's stated future work (§III) — combining the
// proactive Advisor placement with reactive page migration.
//
// For each application: memory mode (baseline 1.0), pure reactive
// (kernel tiering), pure proactive (ecoHMEM bandwidth-aware), and the
// hybrid: the proactive placement replayed under the online migration
// policy seeded from the same report, as
// `ecohmem-run --online P --from-report R` runs it (docs/online.md).
// The hybrid pays every migration's bandwidth cost, so it can fall below
// the proactive run where the policy moves more than it gains.

#include <cstdio>

#include "bench_common.hpp"
#include "ecohmem/baselines/kernel_tiering.hpp"

using namespace ecohmem;

namespace {

void run_app(const std::string& name) {
  const auto sys = *memsim::paper_system(6);
  const runtime::Workload w = apps::make_app(name);
  const Bytes dram = name == "openfoam" ? 11 * bench::kGiB : 12 * bench::kGiB;

  const auto baseline = core::run_memory_mode(w, sys);
  if (!baseline) return;

  // Pure reactive.
  double reactive = 0.0;
  {
    baselines::KernelTieringMode tiering(&sys, 0, sys.fallback_index());
    runtime::ExecutionEngine engine(&sys, {});
    const auto run = engine.run(w, tiering);
    if (run) reactive = run->speedup_over(*baseline);
  }

  // Pure proactive (bandwidth-aware ecoHMEM).
  core::WorkflowOptions opt;
  opt.dram_limit = dram;
  opt.bandwidth_aware = true;
  const auto proactive = core::run_workflow(w, sys, opt);
  if (!proactive) return;

  // Hybrid: the same placement and report, plus the seeded online policy.
  const online::OnlinePolicyConfig policy;  // defaults == configs/online_policy.ini
  double hybrid = 0.0;
  double migrated_gb = 0.0;
  const auto seeded = bench::run_seeded_online(w, sys, *proactive, dram, policy);
  if (seeded) {
    hybrid = seeded->speedup_over(*baseline);
    migrated_gb = static_cast<double>(seeded->migrated_bytes) / 1e9;
  }

  std::printf("%-14s %9.2f %10.2f %8.2f   (%.1f GB migrated)\n", name.c_str(), reactive,
              proactive->speedup(), hybrid, migrated_gb);
}

}  // namespace

int main() {
  bench::print_header("bench_ext_hybrid",
                      "extension: §III future work — proactive + reactive hybrid");
  std::printf("%-14s %9s %10s %8s\n", "app", "reactive", "proactive", "hybrid");
  for (const auto& name : apps::app_names()) run_app(name);
  std::printf("\n(speedups over memory mode; 'reactive' is the tiering kernel with its\n"
              " metadata tax, 'proactive' is bandwidth-aware ecoHMEM, 'hybrid' runs the\n"
              " default online policy seeded from the proactive report)\n");
  return 0;
}
