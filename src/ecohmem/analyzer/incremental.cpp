#include "ecohmem/analyzer/incremental.hpp"

#include <algorithm>
#include <variant>

namespace ecohmem::analyzer {

IncrementalAggregator::IncrementalAggregator(const trace::StackTable& stacks,
                                             const trace::FunctionTable& functions,
                                             AnalyzerOptions options)
    : stacks_(&stacks),
      functions_(&functions),
      options_(options),
      uncore_meter_(1, options.bw_bin_ns),
      sample_meter_(1, options.bw_bin_ns),
      sites_(stacks.size()),
      function_accum_(functions.size()) {}

Status IncrementalAggregator::ingest(const trace::Event* events, std::size_t count) {
  if (!error_.empty()) return unexpected(error_);

  for (std::size_t k = 0; k < count; ++k) {
    const trace::Event& event = events[k];
    const std::uint64_t i = n_events_;

    if (const auto* u = std::get_if<trace::UncoreBwEvent>(&event)) {
      has_uncore_ = true;
      const Ns t0 = u->time > u->period_ns ? u->time - u->period_ns : 0;
      uncore_meter_.add(0, t0, u->time,
                        (u->read_gbs + u->write_gbs) * static_cast<double>(u->period_ns));
    } else if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
      // sites_ has one slot per stack-table entry (kInvalidStack is past it).
      if (a->stack >= sites_.size()) {
        error_ = "alloc event with invalid stack id";
        return unexpected(error_);
      }
      auto [it, inserted] = live_.try_emplace(a->address);
      // Address reuse while live: the previous object drops out of the
      // live map here.
      it->second = LiveObject{a->size, a->stack, a->time};
      (void)inserted;
      object_address_[a->object_id] = a->address;

      auto& acc = sites_[a->stack];
      if (acc.record.alloc_count == 0) {
        acc.record.stack = a->stack;
        acc.record.callstack = stacks_->stack(a->stack);
        acc.record.first_alloc = a->time;
      }
      ++acc.record.alloc_count;
      acc.record.max_size = std::max(acc.record.max_size, a->size);
      acc.live_bytes += a->size;
      acc.record.peak_live_bytes = std::max(acc.record.peak_live_bytes, acc.live_bytes);

      // The alloc-window bandwidth average can see future traffic;
      // defer the fold to finalize() (in allocation order).
      const Ns w0 = a->time > options_.alloc_window_ns ? a->time - options_.alloc_window_ns / 2 : 0;
      alloc_bw_pending_.emplace_back(a->stack, w0);
    } else if (const auto* f = std::get_if<trace::FreeEvent>(&event)) {
      const auto addr_it = object_address_.find(f->object_id);
      if (addr_it == object_address_.end()) {
        error_ = "free event for unknown object id " + std::to_string(f->object_id);
        return unexpected(error_);
      }
      const auto live_it = live_.find(addr_it->second);
      if (live_it == live_.end()) {
        error_ = "double free of object id " + std::to_string(f->object_id);
        return unexpected(error_);
      }
      const LiveObject& obj = live_it->second;
      auto& acc = sites_[obj.stack];
      acc.live_bytes = acc.live_bytes >= obj.size ? acc.live_bytes - obj.size : 0;
      acc.record.windows.push_back(LiveWindow{obj.alloc_time, f->time});
      acc.record.last_free = std::max(acc.record.last_free, f->time);
      acc.record.total_lifetime_ns +=
          static_cast<double>(f->time > obj.alloc_time ? f->time - obj.alloc_time : 0);
      live_.erase(live_it);
      object_address_.erase(addr_it);
    } else if (const auto* s = std::get_if<trace::SampleEvent>(&event)) {
      if (!has_uncore_) {
        sample_meter_.add(0, s->time, s->time + 1, s->weight * static_cast<double>(kCacheLine));
      }

      // Function attribution happens regardless of object resolution.
      FunctionAccum& fn = s->function_id < function_accum_.size()
                              ? function_accum_[s->function_id]
                              : functions_past_table_[s->function_id];
      fn.touched = true;
      if (!s->is_store) {
        fn.samples += s->weight;
        fn.latency_sum += s->weight * s->latency_ns;
      }

      // Resolve against the live map as of event i: nearest live start
      // at or below the address, containment-check that single
      // candidate.
      trace::StackId stack = trace::kInvalidStack;
      auto live_it = live_.upper_bound(s->address);
      if (live_it != live_.begin()) {
        --live_it;
        const LiveObject& obj = live_it->second;
        if (s->address >= live_it->first && s->address < live_it->first + obj.size) {
          stack = obj.stack;
        }
      }
      if (stack == trace::kInvalidStack) {
        unattributed_ += s->weight;
      } else {
        auto& acc = sites_[stack];
        if (s->is_store) {
          acc.record.store_misses += s->weight;
          acc.record.has_writes = true;
        } else {
          acc.record.load_misses += s->weight;
          acc.latency_weight += s->weight;
          acc.latency_sum += s->weight * s->latency_ns;
        }
      }
    }
    // Markers only carry a timestamp: samples carry their own function.

    last_time_ = std::max(last_time_, trace::event_time(event));
    n_events_ = i + 1;
  }
  return {};
}

Expected<AnalysisResult> IncrementalAggregator::finalize(trace::TraceCoverage coverage) const {
  if (!error_.empty()) return unexpected(error_);

  AnalysisResult result;
  result.coverage = coverage;
  if (result.coverage.empty()) {
    result.coverage.events_seen = n_events_;
    result.coverage.events_declared = n_events_;
  }
  result.trace_end = last_time_;
  result.unattributed_samples = unattributed_;

  const memsim::BandwidthMeter& bw_meter = has_uncore_ ? uncore_meter_ : sample_meter_;
  result.system_bw = bw_meter.series(0);
  result.observed_peak_bw_gbs = bw_meter.peak_gbs(0);

  // Snapshot semantics: all remaining folds mutate copies.
  std::vector<SiteAccum> sites = sites_;

  // Deferred alloc-window folds, replayed in allocation order.
  for (const auto& [stack, w0] : alloc_bw_pending_) {
    sites[stack].alloc_bw_sum +=
        bw_meter.average_gbs(0, w0, w0 + options_.alloc_window_ns);
  }

  // Objects still live: close their windows at the last event time, in
  // ascending address order.
  for (const auto& [addr, obj] : live_) {
    (void)addr;
    auto& acc = sites[obj.stack];
    acc.record.windows.push_back(LiveWindow{obj.alloc_time, last_time_});
    acc.record.last_free = std::max(acc.record.last_free, last_time_);
    acc.record.total_lifetime_ns +=
        static_cast<double>(last_time_ > obj.alloc_time ? last_time_ - obj.alloc_time : 0);
  }

  for (SiteAccum& acc : sites) {
    SiteRecord& r = acc.record;
    if (r.alloc_count == 0) continue;
    r.mean_lifetime_ns = r.total_lifetime_ns / static_cast<double>(r.alloc_count);
    r.alloc_time_system_bw_gbs = acc.alloc_bw_sum / static_cast<double>(r.alloc_count);
    if (acc.latency_weight > 0.0) {
      r.avg_load_latency_ns = acc.latency_sum / acc.latency_weight;
    }
    if (r.total_lifetime_ns > 0.0) {
      r.exec_bw_gbs = (r.load_misses + r.store_misses) * static_cast<double>(kCacheLine) /
                      r.total_lifetime_ns;
    }
    // Execution-time system bandwidth: average over the live windows.
    double weighted = 0.0;
    double total_dur = 0.0;
    for (const auto& w : r.windows) {
      const double dur = static_cast<double>(w.duration());
      weighted += bw_meter.average_gbs(0, w.start, std::max(w.end, w.start + 1)) * dur;
      total_dur += dur;
    }
    r.exec_time_system_bw_gbs = total_dur > 0.0 ? weighted / total_dur : 0.0;

    std::sort(r.windows.begin(), r.windows.end(),
              [](const LiveWindow& a, const LiveWindow& b) { return a.start < b.start; });
    result.sites.push_back(std::move(r));
  }

  // Deterministic output order: by first allocation, then stack id.
  std::sort(result.sites.begin(), result.sites.end(), [](const SiteRecord& a, const SiteRecord& b) {
    return a.first_alloc != b.first_alloc ? a.first_alloc < b.first_alloc : a.stack < b.stack;
  });

  // Functions in id order (the table, then the ids past it), so ties
  // between equal names (the "?" placeholder) break deterministically.
  const auto add_function = [&](std::uint32_t fn_id, const FunctionAccum& acc) {
    FunctionProfile fp;
    fp.name = fn_id < functions_->size() ? functions_->name(fn_id) : "?";
    fp.load_samples = acc.samples;
    fp.avg_load_latency_ns = acc.samples > 0.0 ? acc.latency_sum / acc.samples : 0.0;
    result.functions.push_back(std::move(fp));
  };
  for (std::size_t k = 0; k < function_accum_.size(); ++k) {
    if (function_accum_[k].touched) add_function(static_cast<std::uint32_t>(k), function_accum_[k]);
  }
  for (const auto& [fn_id, acc] : functions_past_table_) add_function(fn_id, acc);
  std::stable_sort(result.functions.begin(), result.functions.end(),
                   [](const FunctionProfile& a, const FunctionProfile& b) {
                     return a.name < b.name;
                   });
  return result;
}

}  // namespace ecohmem::analyzer
