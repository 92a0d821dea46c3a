#include "ecohmem/runtime/engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "ecohmem/online/planner.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/online/sampler.hpp"
#include "ecohmem/online/sharded.hpp"
#include "ecohmem/runtime/guidance.hpp"

namespace ecohmem::runtime {

ExecutionEngine::ExecutionEngine(const memsim::MemorySystem* system, EngineOptions options)
    : system_(system), options_(options) {}

KernelSolution solve_kernel_fixed_point(const memsim::MemorySystem& system,
                                        const std::vector<ObjectTraffic>& traffic,
                                        const std::vector<memsim::KernelObjectMisses>& misses,
                                        double compute_ns, double mlp,
                                        const EngineOptions& options) {
  const std::size_t tiers = system.tier_count();
  KernelSolution sol;
  sol.tier_read_latency_ns.assign(tiers, 0.0);
  sol.tier_write_latency_ns.assign(tiers, 0.0);
  sol.object_load_latency_ns.assign(traffic.size(), 0.0);

  // Aggregate per-tier byte totals once.
  std::vector<double> read_bytes(tiers, 0.0);
  std::vector<double> write_bytes(tiers, 0.0);
  for (const auto& t : traffic) {
    for (std::size_t k = 0; k < tiers; ++k) {
      read_bytes[k] += t.read_bytes[k];
      write_bytes[k] += t.write_bytes[k];
    }
  }

  // Bandwidth floor: no tier can move its bytes faster than its ceilings.
  double bw_floor = 0.0;
  for (std::size_t k = 0; k < tiers; ++k) {
    const auto& spec = system.tier(k).spec();
    const double t_tier = (read_bytes[k] / spec.peak_read_gbs +
                           write_bytes[k] / spec.peak_write_gbs) /
                          memsim::kMaxUtilization;
    bw_floor = std::max(bw_floor, t_tier);
  }
  sol.bw_floor_ns = bw_floor;

  const double safe_mlp = std::max(mlp, 1.0);

  // Initial guess: idle latencies.
  double duration = std::max(compute_ns, 1.0);
  for (std::size_t k = 0; k < tiers; ++k) {
    const auto& tier = system.tier(k);
    duration += read_bytes[k] / static_cast<double>(kCacheLine) *
                tier.spec().idle_read_ns / safe_mlp;
  }
  duration = std::max(duration, bw_floor);

  for (int iter = 0; iter < options.max_fixed_point_iters; ++iter) {
    sol.iterations = iter + 1;

    // Utilization and latency per tier at the current duration guess.
    std::vector<double> lat_read(tiers, 0.0);
    std::vector<double> lat_write(tiers, 0.0);
    for (std::size_t k = 0; k < tiers; ++k) {
      const auto& tier = system.tier(k);
      const double u = tier.utilization(read_bytes[k] / duration, write_bytes[k] / duration);
      lat_read[k] = tier.read_latency_ns(u);
      lat_write[k] = tier.write_latency_ns(u);
    }

    // Per-object load latency and stall accumulation.
    double load_stall = 0.0;
    double store_stall = 0.0;
    for (std::size_t i = 0; i < traffic.size(); ++i) {
      double lat = traffic[i].fixed_latency_ns;
      for (std::size_t k = 0; k < tiers; ++k) {
        lat += traffic[i].latency_share[k] * lat_read[k];
      }
      sol.object_load_latency_ns[i] = lat;
      load_stall += misses[i].load_misses * lat / safe_mlp;
      for (std::size_t k = 0; k < tiers; ++k) {
        store_stall += traffic[i].write_bytes[k] / static_cast<double>(kCacheLine) *
                       lat_write[k] * options.store_stall_weight / safe_mlp;
      }
    }

    const double next = std::max(compute_ns + load_stall + store_stall, bw_floor);
    const double damped = 0.5 * duration + 0.5 * next;
    const bool converged = std::abs(damped - duration) <= options.convergence * duration;
    duration = damped;
    sol.load_stall_ns = load_stall;
    sol.store_stall_ns = store_stall;
    sol.tier_read_latency_ns = lat_read;
    sol.tier_write_latency_ns = lat_write;
    if (converged) break;
  }

  sol.duration_ns = duration;
  return sol;
}

namespace {

struct LiveState {
  bool live = false;
  std::uint64_t address = 0;
  std::uint64_t uid = 0;
  Bytes bytes = 0;  ///< current requested size (tracks realloc)
};

/// Converts a stream of fractional overhead charges into whole-ns clock
/// advances without dropping the remainders: after every `credit` call
/// the total advance handed out equals the truncation of the *cumulative*
/// overhead. That is how `total_ns` is defined — the clock carries the
/// interposition overhead summed over the run, truncated once — and a
/// sum of per-op truncations would lose up to a nanosecond per
/// allocation and shift every run's total.
struct OverheadClock {
  double accumulated_ns = 0.0;
  Ns credited = 0;

  [[nodiscard]] Ns credit(double overhead_ns) {
    accumulated_ns += overhead_ns;
    const Ns total = static_cast<Ns>(accumulated_ns);
    const Ns delta = total - credited;
    credited = total;
    return delta;
  }
};

/// Deduplicating function-name -> metrics-slot lookup.
struct FunctionTable {
  std::unordered_map<std::string, std::size_t> index;

  FunctionMetrics& slot(RunMetrics& metrics, const std::string& fn) {
    const auto it = index.find(fn);
    if (it != index.end()) return metrics.functions[it->second];
    index.emplace(fn, metrics.functions.size());
    metrics.functions.push_back(FunctionMetrics{fn, 0.0, 0.0, 0.0, 0.0});
    return metrics.functions.back();
  }
};

/// Replays one kernel step and returns its end time, binning the
/// resolved traffic into `bw_meter`. `online_feedback`, when non-null,
/// receives this kernel's per-object miss counts (with live sizes) for
/// the online sampler.
Expected<Ns> replay_kernel(
    const memsim::MemorySystem& system, const EngineOptions& options, const Workload& workload,
    const KernelOp& kop, ExecutionMode& mode, const std::vector<LiveState>& live, Ns now,
    RunMetrics& metrics, FunctionTable& functions, memsim::AnalyticCacheModel& cache,
    memsim::BandwidthMeter& bw_meter,
    std::vector<online::ObjectAccess>* online_feedback = nullptr) {
  const std::size_t tiers = system.tier_count();
  const KernelSpec& kernel = workload.kernels[kop.kernel];

  // Gather live objects this kernel touches.
  std::vector<LiveObjectRef> objects;
  std::vector<memsim::KernelObjectAccess> accesses;
  objects.reserve(kernel.accesses.size());
  accesses.reserve(kernel.accesses.size());
  for (const auto& acc : kernel.accesses) {
    const auto& state = live[acc.object];
    if (!state.live) return unexpected("kernel touches non-live object");
    const ObjectSpec& spec = workload.objects[acc.object];
    objects.push_back(LiveObjectRef{acc.object, &spec, state.address, acc.footprint});
    accesses.push_back(memsim::KernelObjectAccess{acc.llc_loads, acc.llc_stores, acc.footprint,
                                                  spec.llc_friendliness,
                                                  spec.prefetch_efficiency});
  }

  const memsim::KernelCacheOutcome cache_outcome = cache.evaluate(accesses);

  if (online_feedback != nullptr) {
    online_feedback->clear();
    online_feedback->reserve(objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i) {
      online_feedback->push_back(online::ObjectAccess{objects[i].object,
                                                      cache_outcome.per_object[i].load_misses,
                                                      cache_outcome.per_object[i].store_misses,
                                                      live[objects[i].object].bytes});
    }
  }

  std::vector<ObjectTraffic> traffic(objects.size());
  for (auto& t : traffic) {
    t.read_bytes.assign(tiers, 0.0);
    t.write_bytes.assign(tiers, 0.0);
    t.latency_share.assign(tiers, 0.0);
  }
  mode.resolve(objects, cache_outcome.per_object, traffic);

  // Modes may have appended background-traffic entries (migration);
  // pad the miss vector with zeroes so the solver sees no extra stalls.
  std::vector<memsim::KernelObjectMisses> padded_misses = cache_outcome.per_object;
  padded_misses.resize(traffic.size());

  const double compute_ns = cycles_to_ns(kernel.compute_cycles);
  const KernelSolution sol = solve_kernel_fixed_point(system, traffic, padded_misses, compute_ns,
                                                      workload.mlp, options);

  const Ns start = now;
  const Ns end = now + static_cast<Ns>(std::llround(sol.duration_ns));

  // Accounting.
  metrics.compute_ns += compute_ns;
  metrics.load_stall_ns += sol.load_stall_ns;
  metrics.store_stall_ns += sol.store_stall_ns;
  metrics.bw_limited_extra_ns +=
      std::max(0.0, sol.duration_ns - (compute_ns + sol.load_stall_ns + sol.store_stall_ns));
  metrics.total_load_misses += cache_outcome.total_load_misses;
  metrics.total_store_misses += cache_outcome.total_store_misses;

  FunctionMetrics& fn = functions.slot(metrics, kernel.function);
  fn.instructions += kernel.instructions;
  fn.cycles += ns_to_cycles(sol.duration_ns);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    fn.load_misses += cache_outcome.per_object[i].load_misses;
    fn.latency_weight_sum +=
        cache_outcome.per_object[i].load_misses * sol.object_load_latency_ns[i];
  }

  for (std::size_t i = 0; i < traffic.size(); ++i) {
    for (std::size_t k = 0; k < tiers; ++k) {
      metrics.tier_traffic[k].read_bytes += traffic[i].read_bytes[k];
      metrics.tier_traffic[k].write_bytes += traffic[i].write_bytes[k];
      bw_meter.add(k, start, end, traffic[i].read_bytes[k] + traffic[i].write_bytes[k]);
    }
  }

  if (options.observer != nullptr) {
    KernelObservation obs;
    obs.start = start;
    obs.end = end;
    obs.kernel = &kernel;
    for (const auto& t : traffic) {
      for (std::size_t k = 0; k < tiers; ++k) {
        obs.total_read_bytes += t.read_bytes[k];
        obs.total_write_bytes += t.write_bytes[k];
      }
    }
    obs.objects.reserve(objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i) {
      ObjectKernelSample s;
      s.object = objects[i].object;
      s.address = objects[i].address;
      s.size = objects[i].spec->size;
      s.load_misses = cache_outcome.per_object[i].load_misses;
      s.store_misses = cache_outcome.per_object[i].store_misses;
      s.store_instructions = kernel.accesses[i].store_instructions > 0.0
                                 ? kernel.accesses[i].store_instructions
                                 : cache_outcome.per_object[i].store_misses;
      s.avg_load_latency_ns = sol.object_load_latency_ns[i];
      obs.objects.push_back(s);
    }
    options.observer->on_kernel(obs);
  }

  mode.after_kernel(start, end, objects, cache_outcome.per_object);
  return end;
}

/// Engine tier migrations promote toward (the DRAM-class tier by the
/// system-building convention used throughout tools/ and tests/).
constexpr std::size_t kFastTier = 0;

/// Per-site guided-to-fast-tier flags from an optional guidance seed
/// (`--from-report`); empty when no guidance is attached.
std::vector<unsigned char> guided_fast_sites(const GuidanceSeed* guidance,
                                             const Workload& workload,
                                             const memsim::MemorySystem& system) {
  std::vector<unsigned char> flags;
  if (guidance == nullptr) return flags;
  const std::string& fast_name = system.tier(kFastTier).name();
  flags.resize(workload.sites.size(), 0);
  for (std::size_t s = 0; s < workload.sites.size(); ++s) {
    flags[s] = guidance->site_maps_to(s, fast_name) ? 1 : 0;
  }
  return flags;
}

/// State of the online placement subsystem: the sharded sampler/hotness
/// state (online/sharded.hpp), the planner, the moves scheduled at the
/// last policy evaluation — applied at the *next* kernel boundary, the
/// window in which a free or realloc can invalidate a scheduled move
/// (detected via the allocation uid and counted as cancelled) — and the
/// guidance seeding state.
struct OnlineDriver {
  OnlineDriver(const online::OnlinePolicyConfig& cfg, std::vector<unsigned char> guided)
      : config(&cfg),
        state(cfg),
        planner(cfg),
        site_fast(std::move(guided)),
        have_guidance(!site_fast.empty()) {}

  const online::OnlinePolicyConfig* config;
  online::ShardedOnlineState state;
  online::MigrationPlanner planner;
  std::vector<online::PlannedMove> pending;
  std::vector<std::uint64_t> pending_uid;      ///< uid at scheduling time
  std::vector<online::ObjectAccess> feedback;  ///< reused per kernel

  /// Guidance seeding (--from-report): per-site flag, set when the
  /// report maps the site to the fast tier.
  std::vector<unsigned char> site_fast;
  bool have_guidance = false;
  bool seed_scan_done = false;         ///< one-time live-object scan ran
  std::deque<std::size_t> seed_queue;  ///< guided objects awaiting promotion

  /// Monotonic min-deque of fast-tier headroom observed at the last
  /// `window` kernel boundaries: (kernel index, headroom bytes).
  std::deque<std::pair<std::uint64_t, Bytes>> headroom_window;
  std::uint64_t headroom_kernel = 0;

  /// Seeds mature hotness history for an object born at a fast-guided
  /// site (called at its AllocOp), so the maturity gate does not keep
  /// report-designated objects out of the first planning rounds.
  void maybe_seed(std::size_t object, std::size_t site) {
    if (!have_guidance || site >= site_fast.size() || site_fast[site] == 0) return;
    state.seed(object, config->min_density);
  }

  /// Folds the headroom observed at this kernel boundary into the
  /// window and returns the windowed minimum. Kernel-boundary headroom
  /// oscillates when a workload allocates and frees large temporaries
  /// every step (openfoam's assembly pool); promoting persistent
  /// objects into such a trough evicts the *next* step's temporaries to
  /// the slow tier via OOM redirect — capacity the planner never sees
  /// it spending. Planning against the windowed minimum only offers
  /// headroom that stayed free across a whole inner-loop iteration.
  Bytes conservative_headroom(Bytes now_free) {
    ++headroom_kernel;
    while (!headroom_window.empty() && headroom_window.back().second >= now_free) {
      headroom_window.pop_back();
    }
    headroom_window.emplace_back(headroom_kernel, now_free);
    while (headroom_window.front().first + config->window <= headroom_kernel) {
      headroom_window.pop_front();
    }
    return headroom_window.front().second;
  }
};

/// Policy evaluation at a kernel boundary. Folds the headroom window,
/// and — when no plan is pending —
/// drains the guidance seed queue or asks the planner for promote/demote
/// moves. The seed queue is built once, at the first evaluation, from
/// live fast-guided objects stranded in slow tiers (objects allocated
/// later at guided sites are covered by their seeded hotness instead);
/// seeded promotions use free headroom only (fit-or-skip; huge objects
/// may take a chunk-aligned partial grant) and never displace residents.
void evaluate_online_policy(OnlineDriver& d, const Workload& workload, ExecutionMode& mode,
                            const std::vector<LiveState>& live, RunMetrics& metrics) {
  const Bytes usable_headroom = d.conservative_headroom(mode.migration_headroom(kFastTier));
  if (!d.pending.empty()) return;

  if (d.have_guidance && !d.seed_scan_done) {
    d.seed_scan_done = true;
    for (std::size_t obj = 0; obj < live.size(); ++obj) {
      if (!live[obj].live) continue;
      if (d.site_fast[workload.objects[obj].site] == 0) continue;
      const auto tier = mode.object_tier(obj);
      if (!tier || *tier == kFastTier) continue;
      d.seed_queue.push_back(obj);
    }
  }

  if (!d.seed_queue.empty()) {
    const Bytes chunk = d.config->chunk_bytes;
    const Bytes max_bytes = d.config->max_bytes_per_step;
    Bytes headroom = usable_headroom;
    Bytes bytes_planned = 0;
    while (!d.seed_queue.empty() && d.pending.size() < d.config->max_moves_per_step) {
      const std::size_t obj = d.seed_queue.front();
      if (!live[obj].live) {
        d.seed_queue.pop_front();
        continue;
      }
      const auto tier = mode.object_tier(obj);
      if (!tier || *tier == kFastTier) {
        d.seed_queue.pop_front();
        continue;
      }
      const Bytes total = live[obj].bytes;
      const Bytes fast_bytes = std::min(mode.partial_resident_bytes(obj, kFastTier), total);
      const Bytes remaining = total - fast_bytes;
      if (remaining == 0) {
        d.seed_queue.pop_front();
        continue;
      }
      Bytes room = headroom;
      if (max_bytes != 0) room = std::min(room, max_bytes - bytes_planned);
      if (remaining <= room) {
        d.pending.push_back(online::PlannedMove{obj, *tier, kFastTier, remaining, fast_bytes,
                                                remaining != total});
        headroom -= remaining;
        bytes_planned += remaining;
        d.seed_queue.pop_front();
        continue;
      }
      const bool huge =
          d.config->huge_object_bytes != 0 && total >= d.config->huge_object_bytes;
      if (huge) {
        const Bytes take = room - room % chunk;
        if (take == 0) break;  // below one chunk of room; retry next evaluation
        d.pending.push_back(online::PlannedMove{obj, *tier, kFastTier, take, fast_bytes, true});
        bytes_planned += take;
        break;  // the partial grant consumed the remaining room
      }
      // Does not fit the current headroom: drop it from the queue — the
      // policy can still promote it later from observed hotness.
      d.seed_queue.pop_front();
    }
  }

  if (d.pending.empty()) {
    std::vector<online::ObjectView> views;
    views.reserve(live.size());
    for (std::size_t obj = 0; obj < live.size(); ++obj) {
      if (!live[obj].live) continue;
      const auto tier = mode.object_tier(obj);
      if (!tier) continue;
      const Bytes fast_bytes =
          *tier == kFastTier
              ? live[obj].bytes
              : std::min(mode.partial_resident_bytes(obj, kFastTier), live[obj].bytes);
      views.push_back(online::ObjectView{obj, live[obj].bytes, *tier, d.state.hotness(obj),
                                         d.state.shield(obj), d.state.age(obj), fast_bytes});
    }
    d.pending = d.planner.plan(views, kFastTier, usable_headroom);
  }

  d.pending_uid.clear();
  d.pending_uid.reserve(d.pending.size());
  for (const online::PlannedMove& mv : d.pending) {
    d.pending_uid.push_back(live[mv.object].uid);
  }
  metrics.migrations_scheduled += d.pending.size();
}

/// Applies the moves scheduled at the previous policy evaluation. Runs
/// just before a kernel replays; moves whose object was freed or realloc'd
/// since scheduling (the uid changed) and moves refused by a now-full
/// target are cancelled, never errors — and a cancelled move charges
/// nothing: no cost-model time, no tier traffic, no bandwidth, which is
/// what keeps `migrations_scheduled == migrations + migrations_cancelled`
/// an exact byte-accounting identity. Applied moves charge the cost
/// model into the clock, the per-tier traffic totals and the bandwidth
/// timeline — migrations are never free. Partial (sub-range) moves go
/// through `migrate_object_range` and keep the object's home address.
Status apply_pending_migrations(OnlineDriver& d, ExecutionMode& mode,
                                std::vector<LiveState>& live,
                                const memsim::MemorySystem& system, RunMetrics& metrics,
                                Ns& now, memsim::BandwidthMeter& bw_meter) {
  for (std::size_t i = 0; i < d.pending.size(); ++i) {
    const online::PlannedMove& mv = d.pending[i];
    auto& state = live[mv.object];
    if (!state.live || state.uid != d.pending_uid[i]) {
      ++metrics.migrations_cancelled;
      continue;
    }
    const bool partial = mv.partial || mv.offset != 0;
    auto moved = partial ? mode.migrate_object_range(mv.object, state.address, mv.to_tier,
                                                     mv.offset, mv.bytes)
                         : mode.migrate_object(mv.object, state.address, mv.to_tier);
    if (!moved) return unexpected("online migration failed: " + moved.error());
    if (!moved->moved) {
      ++metrics.migrations_cancelled;
      continue;
    }
    // Whole-object moves relocate the home block; sub-range moves leave
    // it in place (the mode's fragment map tracks the moved pieces).
    if (!moved->partial) state.address = moved->address;

    const double cost_ns = online::migration_cost_ns(moved->bytes, system, moved->from_tier,
                                                     mv.to_tier, d.config->bandwidth_fraction);
    const Ns start = now;
    const Ns end = now + static_cast<Ns>(std::llround(cost_ns));
    const double bytes = static_cast<double>(moved->bytes);
    metrics.tier_traffic[moved->from_tier].read_bytes += bytes;
    metrics.tier_traffic[mv.to_tier].write_bytes += bytes;
    bw_meter.add(moved->from_tier, start, end, bytes);
    bw_meter.add(mv.to_tier, start, end, bytes);
    now = end;

    metrics.migration_ns += cost_ns;
    metrics.migrated_bytes += moved->bytes;
    ++metrics.migrations;
    if (moved->partial) ++metrics.migrations_partial;
    metrics.migration_events.push_back(MigrationRecord{start, mv.object, moved->from_tier,
                                                       mv.to_tier, moved->bytes, moved->offset,
                                                       moved->partial});
  }
  d.pending.clear();
  d.pending_uid.clear();
  return {};
}

}  // namespace

Expected<RunMetrics> ExecutionEngine::run(const Workload& workload, ExecutionMode& mode) {
  // Online placement rules: the policy must validate, the mode must
  // support migration, and no observer may be attached (profiling runs
  // and migrating runs are mutually exclusive — the observer would see
  // addresses the policy is about to invalidate).
  if (options_.online_policy != nullptr) {
    if (Status s = options_.online_policy->validate(); !s) return unexpected(s.error());
    if (options_.observer != nullptr) {
      return unexpected(
          "online placement does not support observers; detach the observer or drop the "
          "online policy");
    }
    if (!mode.supports_object_migration()) {
      return unexpected("online placement needs an execution mode with object migration; "
                        "mode '" + mode.name() + "' has none (use app-direct)");
    }
  }

  const std::size_t tiers = system_->tier_count();

  RunMetrics metrics;
  metrics.workload = workload.name;
  metrics.mode = mode.name();
  metrics.tier_traffic.resize(tiers);
  for (std::size_t k = 0; k < tiers; ++k) {
    metrics.tier_traffic[k].tier = system_->tier(k).name();
  }

  memsim::AnalyticCacheModel cache(options_.llc_bytes);
  memsim::BandwidthMeter bw_meter(tiers, options_.bw_bin_ns);

  std::vector<LiveState> live(workload.objects.size());
  std::uint64_t next_uid = 1;
  FunctionTable functions;

  std::optional<OnlineDriver> online_driver;
  if (options_.online_policy != nullptr) {
    online_driver.emplace(*options_.online_policy,
                          guided_fast_sites(options_.guidance, workload, *system_));
  }

  Ns now = 0;
  OverheadClock overhead_clock;

  for (const auto& step : workload.steps) {
    if (const auto* a = std::get_if<AllocOp>(&step)) {
      const ObjectSpec& spec = workload.objects[a->object];
      const SiteSpec& site = workload.sites[spec.site];

      auto address = mode.on_alloc(a->object, spec, site, spec.size);
      if (!address) {
        return unexpected("allocation failed in " + mode.name() + " for site '" + site.label +
                          "': " + address.error());
      }
      auto& state = live[a->object];
      state.live = true;
      state.address = *address;
      state.uid = next_uid++;
      state.bytes = spec.size;
      ++metrics.allocations;

      const double overhead = mode.take_alloc_overhead_ns();
      metrics.alloc_overhead_ns += overhead;
      now += overhead_clock.credit(overhead);

      if (online_driver) online_driver->maybe_seed(a->object, spec.site);

      if (options_.observer != nullptr) {
        options_.observer->on_alloc(now, state.uid, state.address, spec.size, site.stack);
      }
    } else if (const auto* f = std::get_if<FreeOp>(&step)) {
      auto& state = live[f->object];
      if (!state.live) return unexpected("free of non-live object in step replay");
      if (Status s = mode.on_free(f->object, state.address); !s) {
        return unexpected("free failed: " + s.error());
      }
      if (options_.observer != nullptr) options_.observer->on_free(now, state.uid);
      state.live = false;
      ++metrics.frees;
      if (online_driver) online_driver->state.forget(f->object);
    } else if (const auto* r = std::get_if<ReallocOp>(&step)) {
      // Interposed realloc: free + alloc through the mode (FlexMalloc
      // keeps the tier of the call stack), fresh uid like a fresh pointer.
      auto& state = live[r->object];
      if (!state.live) return unexpected("realloc of non-live object in step replay");
      const ObjectSpec& spec = workload.objects[r->object];
      const SiteSpec& site = workload.sites[spec.site];
      if (Status s = mode.on_free(r->object, state.address); !s) {
        return unexpected("realloc (free half) failed: " + s.error());
      }
      if (options_.observer != nullptr) options_.observer->on_free(now, state.uid);
      auto address = mode.on_alloc(r->object, spec, site, r->new_size);
      if (!address) return unexpected("realloc failed: " + address.error());
      state.address = *address;
      state.uid = next_uid++;
      state.bytes = r->new_size;
      ++metrics.allocations;
      const double overhead = mode.take_alloc_overhead_ns();
      metrics.alloc_overhead_ns += overhead;
      now += overhead_clock.credit(overhead);
      if (options_.observer != nullptr) {
        options_.observer->on_alloc(now, state.uid, state.address, r->new_size, site.stack);
      }
    } else if (const auto* kop = std::get_if<KernelOp>(&step)) {
      if (online_driver) {
        if (Status s = apply_pending_migrations(*online_driver, mode, live, *system_, metrics,
                                                now, bw_meter);
            !s) {
          return unexpected(s.error());
        }
      }
      auto end = replay_kernel(*system_, options_, workload, *kop, mode, live, now, metrics,
                               functions, cache, bw_meter,
                               online_driver ? &online_driver->feedback : nullptr);
      if (!end) return unexpected(end.error());
      now = *end;

      if (online_driver) {
        OnlineDriver& d = *online_driver;
        // Sample this kernel's misses into the hotness state, then
        // evaluate the policy; the plan applies at the next kernel
        // boundary (see apply_pending_migrations).
        d.state.process_kernel(d.feedback);
        evaluate_online_policy(d, workload, mode, live, metrics);
      }
    }
  }

  // Moves still pending when the run ends were never applied.
  if (online_driver) {
    metrics.migrations_cancelled += online_driver->pending.size();
  }

  metrics.total_ns = now;
  metrics.dram_cache_hit_ratio = mode.dram_cache_hit_ratio();
  metrics.oom_redirects = mode.oom_redirects();
  metrics.tier_bw.resize(tiers);
  for (std::size_t k = 0; k < tiers; ++k) metrics.tier_bw[k] = bw_meter.series(k);
  return metrics;
}

}  // namespace ecohmem::runtime
