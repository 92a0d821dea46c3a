#pragma once

/// \file workload.hpp
/// The interface every perfbench workload implements, and the factory
/// main.cpp picks them from. main.cpp owns timing: it
/// times set-up and every op, and the workloads report only what the
/// runner cannot see from outside (events handled, query latencies,
/// per-layer counters). Every time here is wall time; the runner scales
/// it to the reference host (see scaled_to_reference in main.cpp).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecohmem/common/expected.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  bool trace = false;  ///< traced run: spans on, per-layer metrics out
  bool smoke = false;  ///< tiny inputs, for validating names and units
};

/// What one op reports besides its wall time.
struct OpResult {
  /// Events the op pushed through its pipeline, and the wall time they
  /// took (0 = the whole op): the events_per_s numerator/denominator.
  double events = 0.0;
  double events_ms = 0.0;
  /// One entry per placement query the op answered (or asked).
  std::vector<double> query_ms;
  /// Empty, or one entry per query_ms entry: the mean time of the
  /// reference runs around that query (time_query), which then scales
  /// it instead of the op's own reference bracket.
  std::vector<double> query_reference_ms;
  /// Wall time the op spent in those reference runs, not counted as
  /// the op's.
  double reference_ms_in_op = 0.0;
  std::uint64_t queries_attempted = 0;
  std::uint64_t queries_failed = 0;
  /// Per-layer values of this op, keyed by per-layer metric name
  /// (recorded on traced runs; see round_median in main.cpp).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in one round; timing always covers whole rounds so that every
  /// op kind is equally represented (fig6-pipeline: one op per app).
  [[nodiscard]] virtual std::size_t ops_per_round() const { return 1; }

  /// Builds every input from the seed, discarding any earlier set-up.
  /// Timed by the runner, and repeated to report a median.
  virtual ecohmem::Status setup() = 0;

  /// Runs op `index` (0-based count of ops run since set-up).
  virtual ecohmem::Status op(std::size_t index, OpResult& out) = 0;

  /// Traced runs only: passes that measure a layer in isolation
  /// (baseline replays, the incremental fold), run after op `index`
  /// outside its timing; their spans count toward that op's layers.
  virtual ecohmem::Status layer_passes(std::size_t index) {
    (void)index;
    return {};
  }

  /// Output checks over every op run; also yields the simulated speedup
  /// of the workload's placement.
  virtual ecohmem::Status check(double& sim_speedup) = 0;
};

std::unique_ptr<Workload> make_fig6_pipeline(const RunOptions& options);
std::unique_ptr<Workload> make_analyze_churn(const RunOptions& options);
std::unique_ptr<Workload> make_online_phase(const RunOptions& options);
std::unique_ptr<Workload> make_serve_mixed(const RunOptions& options);

/// Mixes the workload seed into a 64-bit stream seed for one purpose.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + purpose;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
