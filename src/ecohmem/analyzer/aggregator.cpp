#include "ecohmem/analyzer/aggregator.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "ecohmem/analyzer/accum.hpp"

namespace ecohmem::analyzer {

using detail::FunctionAccum;
using detail::SiteAccum;

namespace {

/// One allocation in the phase-2 live map.
struct LiveObject {
  Bytes size = 0;
  trace::StackId stack = trace::kInvalidStack;
  Ns alloc_time = 0;
};

/// Per-site sample fold, arena-backed: the cell for stack id `s` lives
/// at cells[s]. Only the sample-side fields — the alloc-side metrics
/// live in the `sites` map the cells fold into at the end.
struct SiteCell {
  double load_misses = 0.0;
  double store_misses = 0.0;
  double latency_weight = 0.0;
  double latency_sum = 0.0;
  bool has_writes = false;
  bool touched = false;
};

/// Per-function sample fold (arena slot). `touched` preserves the
/// historical behavior that any sample — including store-only ones —
/// materializes its function's entry.
struct FunctionCell {
  double samples = 0.0;
  double latency_sum = 0.0;
  bool touched = false;
};

}  // namespace

BandwidthRegion classify_region(double bw_gbs, double peak_gbs) {
  const double frac = peak_gbs > 0.0 ? bw_gbs / peak_gbs : 0.0;
  if (frac < 0.20) return BandwidthRegion::kLow;
  if (frac <= 0.40) return BandwidthRegion::kMid;
  return BandwidthRegion::kHigh;
}

std::string to_string(BandwidthRegion region) {
  switch (region) {
    case BandwidthRegion::kLow: return "B_low";
    case BandwidthRegion::kMid: return "B_mid";
    case BandwidthRegion::kHigh: return "B_high";
  }
  return "?";
}

Expected<AnalysisResult> analyze(const trace::Trace& trace, const AnalyzerOptions& options) {
  AnalysisResult result;
  const std::uint64_t n_events = trace.events.size();

  // Coverage travels from the loader through to the reports. An empty
  // option (strict in-memory callers) means full coverage of what we see.
  result.coverage = options.coverage;
  if (result.coverage.empty()) {
    result.coverage.events_seen = n_events;
    result.coverage.events_declared = n_events;
  }

  // --- Phase 1: bandwidth prescan. Uncore readings (which see
  // prefetch fills) are authoritative; traces without them fall back to
  // reconstructing traffic from the PEBS samples. A separate pass because
  // the allocation-time bandwidth signal of phase 2 may look ahead.
  memsim::BandwidthMeter bw_meter(1, options.bw_bin_ns);
  Ns last_time = 0;
  bool has_uncore = false;
  for (const auto& event : trace.events) {
    if (std::holds_alternative<trace::UncoreBwEvent>(event)) {
      has_uncore = true;
      break;
    }
  }
  for (const auto& event : trace.events) {
    if (const auto* u = std::get_if<trace::UncoreBwEvent>(&event)) {
      const Ns t0 = u->time > u->period_ns ? u->time - u->period_ns : 0;
      bw_meter.add(0, t0, u->time,
                   (u->read_gbs + u->write_gbs) * static_cast<double>(u->period_ns));
    } else if (const auto* s = std::get_if<trace::SampleEvent>(&event)) {
      if (!has_uncore) {
        bw_meter.add(0, s->time, s->time + 1, s->weight * static_cast<double>(kCacheLine));
      }
    }
    last_time = std::max(last_time, trace::event_time(event));
  }
  result.trace_end = last_time;

  // --- Phase 2: replay allocations/frees in program order, accumulating
  // every alloc-side metric, and attribute each sample to the object
  // live at its address at that point of the stream. The live map is
  // ordered so that survivors close their windows in ascending address
  // order, as they always have.
  std::map<std::uint64_t, LiveObject> live;  // start address -> object
  std::unordered_map<std::uint64_t, std::uint64_t> object_address;  // id -> addr
  std::unordered_map<trace::StackId, SiteAccum> sites;

  // Sample folds go to contiguous arenas indexed by stack/function id
  // (no hashing in the hot loop). Every attributed stack is a validated
  // alloc stack (< stacks.size()), so the site arena always covers it;
  // function ids are not validated at decode time (trace-stack-ids only
  // warns), so ids past the table spill into the ordered `functions`
  // map directly.
  std::vector<SiteCell> site_cells(trace.stacks.size());
  std::vector<FunctionCell> function_cells(trace.functions.size());
  std::map<std::uint32_t, FunctionAccum> functions;
  double unattributed = 0.0;

  for (const trace::Event& event : trace.events) {
    if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
      if (a->stack == trace::kInvalidStack || a->stack >= trace.stacks.size()) {
        return unexpected("alloc event with invalid stack id");
      }
      // Address reuse while live: the previous object drops out of the
      // live map here.
      live[a->address] = LiveObject{a->size, a->stack, a->time};
      object_address[a->object_id] = a->address;

      auto& acc = sites[a->stack];
      if (acc.record.alloc_count == 0) {
        acc.record.stack = a->stack;
        acc.record.callstack = trace.stacks.stack(a->stack);
        acc.record.first_alloc = a->time;
      }
      ++acc.record.alloc_count;
      acc.record.max_size = std::max(acc.record.max_size, a->size);
      acc.live_bytes += a->size;
      acc.record.peak_live_bytes = std::max(acc.record.peak_live_bytes, acc.live_bytes);

      const Ns w0 = a->time > options.alloc_window_ns ? a->time - options.alloc_window_ns / 2 : 0;
      acc.alloc_bw_sum += bw_meter.average_gbs(0, w0, w0 + options.alloc_window_ns);
    } else if (const auto* f = std::get_if<trace::FreeEvent>(&event)) {
      const auto addr_it = object_address.find(f->object_id);
      if (addr_it == object_address.end()) {
        return unexpected("free event for unknown object id " + std::to_string(f->object_id));
      }
      const auto live_it = live.find(addr_it->second);
      if (live_it == live.end()) {
        return unexpected("double free of object id " + std::to_string(f->object_id));
      }
      const LiveObject& obj = live_it->second;
      auto& acc = sites[obj.stack];
      acc.live_bytes = acc.live_bytes >= obj.size ? acc.live_bytes - obj.size : 0;
      acc.record.windows.push_back(LiveWindow{obj.alloc_time, f->time});
      acc.record.last_free = std::max(acc.record.last_free, f->time);
      acc.record.total_lifetime_ns +=
          static_cast<double>(f->time > obj.alloc_time ? f->time - obj.alloc_time : 0);
      live.erase(live_it);
      object_address.erase(addr_it);
    } else if (const auto* s = std::get_if<trace::SampleEvent>(&event)) {
      if (s->function_id < function_cells.size()) {
        FunctionCell& fn = function_cells[s->function_id];
        fn.touched = true;
        if (!s->is_store) {
          fn.samples += s->weight;
          fn.latency_sum += s->weight * s->latency_ns;
        }
      } else {
        auto& fn = functions[s->function_id];
        if (!s->is_store) {
          fn.samples += s->weight;
          fn.latency_sum += s->weight * s->latency_ns;
        }
      }

      // Nearest live start at or below the address; containment decides
      // on that single candidate (lower starts are never consulted).
      auto it = live.upper_bound(s->address);
      if (it != live.begin()) --it;
      if (it == live.end() || s->address < it->first ||
          s->address >= it->first + it->second.size) {
        unattributed += s->weight;
        continue;
      }
      SiteCell& cell = site_cells[it->second.stack];
      cell.touched = true;
      if (s->is_store) {
        cell.store_misses += s->weight;
        cell.has_writes = true;
      } else {
        cell.load_misses += s->weight;
        cell.latency_weight += s->weight;
        cell.latency_sum += s->weight * s->latency_ns;
      }
    }
    // Markers only delimit functions; sample events carry their own
    // function attribution.
  }

  // Objects still live at trace end: close their windows at last_time.
  for (const auto& [addr, obj] : live) {
    (void)addr;
    auto& acc = sites[obj.stack];
    acc.record.windows.push_back(LiveWindow{obj.alloc_time, last_time});
    acc.record.last_free = std::max(acc.record.last_free, last_time);
    acc.record.total_lifetime_ns +=
        static_cast<double>(last_time > obj.alloc_time ? last_time - obj.alloc_time : 0);
  }

  // --- Phase 3: fold the arenas into the result containers, walking
  // them in id order.
  for (std::size_t k = 0; k < site_cells.size(); ++k) {
    const SiteCell& cell = site_cells[k];
    if (!cell.touched) continue;
    // Exists: every attributed stack came from a replayed alloc.
    auto& acc = sites[static_cast<trace::StackId>(k)];
    acc.record.load_misses += cell.load_misses;
    acc.record.store_misses += cell.store_misses;
    acc.record.has_writes = acc.record.has_writes || cell.has_writes;
    acc.latency_weight += cell.latency_weight;
    acc.latency_sum += cell.latency_sum;
  }
  for (std::size_t k = 0; k < function_cells.size(); ++k) {
    const FunctionCell& cell = function_cells[k];
    if (!cell.touched) continue;
    functions.emplace(static_cast<std::uint32_t>(k),
                      FunctionAccum{cell.samples, cell.latency_sum});
  }
  result.unattributed_samples = unattributed;

  // --- Phase 4: finalize per-site derived metrics — shared
  // with the incremental driver (accum.hpp) so both stay bit-identical.
  detail::finalize_result(sites, functions, bw_meter, trace.functions, result);

  return result;
}

}  // namespace ecohmem::analyzer
