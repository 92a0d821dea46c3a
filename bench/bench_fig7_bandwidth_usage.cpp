// Fig. 7: "PMem bandwidth usage with the main HMem Advisor algorithm
// (baseline) and the bandwidth-aware algorithm" for LULESH and OpenFOAM.
//
// Expected shape: the bandwidth-aware curve tracks the main curve but
// shaves the high-bandwidth peaks (the Thrashing temporaries moved to
// DRAM); for LULESH the relief follows the phase's demand curve, for
// OpenFOAM it clips the assembly-phase spikes.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

using namespace ecohmem;

namespace {

void compare_series(const std::string& app, Bytes dram_limit) {
  const auto sys = *memsim::paper_system(6);
  const runtime::Workload w = apps::make_app(app);

  core::WorkflowOptions main_opt;
  main_opt.dram_limit = dram_limit;
  core::WorkflowOptions bw_opt = main_opt;
  bw_opt.bandwidth_aware = true;

  const auto main_run = core::run_workflow(w, sys, main_opt);
  const auto bw_run = core::run_workflow(w, sys, bw_opt);
  if (!main_run || !bw_run) {
    std::printf("%s: run failed\n", app.c_str());
    return;
  }

  const std::size_t pmem = sys.fallback_index();
  const auto a = main_run->production_metrics.bandwidth.series(pmem);
  const auto b = bw_run->production_metrics.bandwidth.series(pmem);

  auto bucket_avg = [](const std::vector<memsim::BandwidthPoint>& series, std::size_t buckets,
                       std::size_t i) {
    if (series.empty()) return 0.0;
    const std::size_t lo = i * series.size() / buckets;
    const std::size_t hi = std::max(lo + 1, (i + 1) * series.size() / buckets);
    double sum = 0.0;
    for (std::size_t k = lo; k < hi && k < series.size(); ++k) sum += series[k].gbs;
    return sum / static_cast<double>(hi - lo);
  };

  std::printf("\n%s (speedup: main %.2f, bandwidth-aware %.2f)\n", app.c_str(),
              main_run->speedup(), bw_run->speedup());
  std::printf("%6s %12s %12s\n", "bucket", "main(GB/s)", "bw-aware(GB/s)");
  constexpr std::size_t kBuckets = 32;
  double main_peak = 0.0;
  double bw_peak = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double ma = bucket_avg(a, kBuckets, i);
    const double bb = bucket_avg(b, kBuckets, i);
    main_peak = std::max(main_peak, ma);
    bw_peak = std::max(bw_peak, bb);
    std::printf("%6zu %12.2f %12.2f\n", i, ma, bb);
  }
  std::printf("peak PMem bandwidth: main %.2f GB/s -> bandwidth-aware %.2f GB/s\n", main_peak,
              bw_peak);
}

}  // namespace

int main() {
  bench::print_header("bench_fig7_bandwidth_usage",
                      "Fig. 7 (PMem bandwidth: main vs bandwidth-aware)");
  compare_series("lulesh", 12 * bench::kGiB);
  compare_series("openfoam", 11 * bench::kGiB);
  return 0;
}
