// Fig. 3: "Bandwidth consumption as objects are allocated for LULESH" —
// the PMem bandwidth timeline of one recurring execution phase under the
// access-density placement, annotated with the allocations happening in
// the phase.
//
// Expected shape: low bandwidth through the nodal stretch, a ramp to the
// phase peak as the element streams and freshly allocated temporaries
// hit PMem, then decay to the end of the phase; the large temporary
// allocations cluster at the start of the high-bandwidth region.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

using namespace ecohmem;

int main() {
  bench::print_header("bench_fig3_lulesh_phase",
                      "Fig. 3 (LULESH phase bandwidth + allocations, density placement)");

  const auto sys = *memsim::paper_system(6);
  const runtime::Workload w = apps::make_lulesh();
  core::WorkflowOptions opt;
  opt.dram_limit = 12 * bench::kGiB;
  const auto result = core::run_workflow(w, sys, opt);
  if (!result) {
    std::printf("workflow failed: %s\n", result.error().c_str());
    return 1;
  }

  // One phase = 1/20th of the run (the model's 20 recurring phases);
  // print the second phase to skip warm-up.
  const auto pmem_bw = result->production_metrics.bandwidth.series(sys.fallback_index());
  if (pmem_bw.empty()) {
    std::printf("no bandwidth data\n");
    return 1;
  }
  const Ns total = static_cast<Ns>(result->production_metrics.total_ns);
  const Ns phase = total / 20;
  const Ns begin = phase;
  const Ns end = 2 * phase;

  std::printf("PMem bandwidth over one phase (40 buckets):\n");
  std::printf("%10s %9s  %s\n", "t(s)", "GB/s", "profile");
  const Ns bucket = (end - begin) / 40;
  for (int i = 0; i < 40; ++i) {
    const Ns t0 = begin + static_cast<Ns>(i) * bucket;
    double sum = 0.0;
    int n = 0;
    for (const auto& p : pmem_bw) {
      if (p.time >= t0 && p.time < t0 + bucket) {
        sum += p.gbs;
        ++n;
      }
    }
    const double gbs = n > 0 ? sum / n : 0.0;
    std::printf("%10.2f %9.2f  ", static_cast<double>(t0) * 1e-9, gbs);
    const int bars = std::min(60, static_cast<int>(gbs * 2.0));
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }

  // Allocation annotations: the per-phase sites (alloc_count > 2).
  std::printf("\nallocations recurring each phase (solid bars of Fig. 3):\n");
  std::printf("%-34s %10s %8s %14s\n", "site", "size(MB)", "allocs", "alloc-BW(GB/s)");
  for (const auto& s : result->analysis.sites) {
    if (s.alloc_count <= 2) continue;
    std::string label = "?";
    for (const auto& site : w.sites) {
      if (site.stack == s.callstack) label = site.label;
    }
    std::printf("%-34s %10.1f %8llu %14.2f\n", label.c_str(),
                static_cast<double>(s.max_size) / 1e6,
                static_cast<unsigned long long>(s.alloc_count), s.alloc_time_system_bw_gbs);
  }
  return 0;
}
