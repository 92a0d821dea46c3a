#pragma once

/// \file metrics.hpp
/// Results of one simulated run.

#include <cstdint>
#include <string>
#include <vector>

#include "ecohmem/common/units.hpp"
#include "ecohmem/memsim/bandwidth_meter.hpp"

namespace ecohmem::runtime {

/// Per-function aggregates (Table VII rows).
struct FunctionMetrics {
  std::string function;
  double instructions = 0.0;
  double cycles = 0.0;
  double load_misses = 0.0;
  double latency_weight_sum = 0.0;  ///< sum of misses * per-miss latency

  [[nodiscard]] double ipc() const { return cycles > 0.0 ? instructions / cycles : 0.0; }
  [[nodiscard]] double avg_load_latency_ns() const {
    return load_misses > 0.0 ? latency_weight_sum / load_misses : 0.0;
  }
  /// Latency in core cycles, the unit Table VII uses.
  [[nodiscard]] double avg_load_latency_cycles() const {
    return ns_to_cycles(avg_load_latency_ns());
  }
};

/// Per-tier traffic totals.
struct TierTraffic {
  std::string tier;
  double read_bytes = 0.0;
  double write_bytes = 0.0;
};

/// One applied online migration (docs/online.md). The event log is what
/// the determinism tests compare bit-for-bit: same seed + same policy +
/// same workload must reproduce the exact same sequence.
struct MigrationRecord {
  Ns at = 0;                  ///< simulated time the move started
  std::size_t object = 0;     ///< workload object id
  std::size_t from_tier = 0;  ///< engine tier indices
  std::size_t to_tier = 0;
  Bytes bytes = 0;            ///< bytes moved (the range length for partial moves)
  Bytes offset = 0;           ///< object-relative start of the moved range
  bool partial = false;       ///< true for a sub-range (page-granular) move

  friend bool operator==(const MigrationRecord&, const MigrationRecord&) = default;
};

/// Header row (without its newline) of the migration log, one CSV row
/// per MigrationRecord, that `ecohmem-run --migration-log` writes and
/// check/migration_log.cpp parses.
inline constexpr char kMigrationLogHeader[] = "at_ns,object,from_tier,to_tier,bytes,offset,partial";

/// Everything one replayed run produced: timing breakdown, per-function
/// aggregates, per-tier traffic and bandwidth timelines, and allocator
/// counters. Plain data — produced by one engine run, then read-only.
struct RunMetrics {
  std::string workload;  ///< workload name
  std::string mode;      ///< execution-mode name ("app-direct", ...)

  Ns total_ns = 0;
  double compute_ns = 0.0;
  double load_stall_ns = 0.0;
  double store_stall_ns = 0.0;
  double bw_limited_extra_ns = 0.0;  ///< time added by bandwidth ceilings
  double alloc_overhead_ns = 0.0;    ///< interposition/matching cost

  double total_load_misses = 0.0;
  double total_store_misses = 0.0;

  /// Fraction of time stalled on memory — the "memory bound pipeline
  /// slots" proxy of Table VI.
  [[nodiscard]] double memory_bound_fraction() const {
    const double t = static_cast<double>(total_ns);
    return t > 0.0 ? (load_stall_ns + store_stall_ns + bw_limited_extra_ns) / t : 0.0;
  }

  /// Aggregate DRAM-cache hit ratio; meaningful in memory mode only.
  double dram_cache_hit_ratio = 0.0;

  std::vector<FunctionMetrics> functions;
  std::vector<TierTraffic> tier_traffic;
  std::vector<std::vector<memsim::BandwidthPoint>> tier_bw;  ///< per tier timeline

  std::uint64_t allocations = 0;  ///< completed alloc + realloc ops
  std::uint64_t frees = 0;        ///< completed free ops (realloc's internal free not counted)
  std::uint64_t oom_redirects = 0;

  /// Online placement counters (zero unless EngineOptions.online_policy
  /// is set; docs/online.md). Every scheduled move is either applied or
  /// cancelled: `migrations_scheduled == migrations + migrations_cancelled`.
  std::uint64_t migrations_scheduled = 0;
  std::uint64_t migrations = 0;            ///< applied moves
  std::uint64_t migrations_partial = 0;    ///< applied moves that were sub-range (page-granular)
  std::uint64_t migrations_cancelled = 0;  ///< object died/realloc'd/target full/run ended
  Bytes migrated_bytes = 0;                ///< padded bytes moved
  double migration_ns = 0.0;               ///< time charged into total_ns for moves
  std::vector<MigrationRecord> migration_events;

  /// Speedup of this run relative to `baseline` (>1 = this run faster).
  [[nodiscard]] double speedup_over(const RunMetrics& baseline) const {
    return total_ns > 0 ? static_cast<double>(baseline.total_ns) / static_cast<double>(total_ns)
                        : 0.0;
  }

  [[nodiscard]] const FunctionMetrics* find_function(std::string_view name) const {
    for (const auto& f : functions) {
      if (f.function == name) return &f;
    }
    return nullptr;
  }
};

}  // namespace ecohmem::runtime
