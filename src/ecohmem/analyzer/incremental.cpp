#include "ecohmem/analyzer/incremental.hpp"

#include <algorithm>
#include <variant>

namespace ecohmem::analyzer {

namespace {

/// Index of the last of the `n` ascending `keys` at or below `a`;
/// requires `n > 0` and `keys[0] <= a`. The loop runs ceil(log2 n)
/// times whatever the keys and its compare compiles to a conditional
/// move, so unpredictable addresses cost no branch mispredictions.
std::size_t last_at_or_below(const std::uint64_t* keys, std::size_t n, std::uint64_t a) {
  const std::uint64_t* p = keys;
  while (n > 1) {
    const std::size_t half = n / 2;
    p = p[half] <= a ? p + half : p;
    n -= half;
  }
  return static_cast<std::size_t>(p - keys);
}

}  // namespace

void IncrementalAggregator::LiveIndex::upsert(std::uint64_t start, const LiveObject& obj) {
  if (chunks_.empty()) {
    mins_.push_back(start);
    chunks_.push_back(Chunk{{start}, {obj}});
    return;
  }
  // A start below every chunk goes to the front of the first one.
  const std::size_t c =
      start < mins_[0] ? 0 : last_at_or_below(mins_.data(), mins_.size(), start);
  Chunk& chunk = chunks_[c];
  const auto at = std::lower_bound(chunk.starts.begin(), chunk.starts.end(), start);
  const auto offset = at - chunk.starts.begin();
  if (at != chunk.starts.end() && *at == start) {
    chunk.objects[static_cast<std::size_t>(offset)] = obj;
    return;
  }
  chunk.starts.insert(at, start);
  chunk.objects.insert(chunk.objects.begin() + offset, obj);
  mins_[c] = chunk.starts.front();
  if (chunk.starts.size() <= kChunkCapacity) return;

  // Split off the upper half into a new chunk right after this one.
  const auto half = static_cast<std::ptrdiff_t>(chunk.starts.size() / 2);
  Chunk upper{{chunk.starts.begin() + half, chunk.starts.end()},
              {chunk.objects.begin() + half, chunk.objects.end()}};
  chunk.starts.erase(chunk.starts.begin() + half, chunk.starts.end());
  chunk.objects.erase(chunk.objects.begin() + half, chunk.objects.end());
  const auto next = static_cast<std::ptrdiff_t>(c + 1);
  mins_.insert(mins_.begin() + next, upper.starts.front());
  chunks_.insert(chunks_.begin() + next, std::move(upper));
}

bool IncrementalAggregator::LiveIndex::take(std::uint64_t start, LiveObject& out) {
  if (chunks_.empty() || start < mins_[0]) return false;
  const std::size_t c = last_at_or_below(mins_.data(), mins_.size(), start);
  Chunk& chunk = chunks_[c];
  const std::size_t at = last_at_or_below(chunk.starts.data(), chunk.starts.size(), start);
  if (chunk.starts[at] != start) return false;
  out = chunk.objects[at];
  const auto offset = static_cast<std::ptrdiff_t>(at);
  chunk.starts.erase(chunk.starts.begin() + offset);
  chunk.objects.erase(chunk.objects.begin() + offset);
  if (chunk.starts.empty()) {
    mins_.erase(mins_.begin() + static_cast<std::ptrdiff_t>(c));
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
  } else {
    mins_[c] = chunk.starts.front();
  }
  return true;
}

const IncrementalAggregator::LiveObject* IncrementalAggregator::LiveIndex::floor(
    std::uint64_t addr, std::uint64_t& start) const {
  if (chunks_.empty() || addr < mins_[0]) return nullptr;
  const Chunk& chunk = chunks_[last_at_or_below(mins_.data(), mins_.size(), addr)];
  const std::size_t at = last_at_or_below(chunk.starts.data(), chunk.starts.size(), addr);
  start = chunk.starts[at];
  return &chunk.objects[at];
}

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
      // Address reuse while live: the previous object drops out of the
      // live index here.
      live_.upsert(a->address, LiveObject{a->size, a->stack, a->time});
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
      LiveObject obj;
      if (!live_.take(addr_it->second, obj)) {
        error_ = "double free of object id " + std::to_string(f->object_id);
        return unexpected(error_);
      }
      auto& acc = sites_[obj.stack];
      acc.live_bytes = acc.live_bytes >= obj.size ? acc.live_bytes - obj.size : 0;
      acc.record.windows.push_back(LiveWindow{obj.alloc_time, f->time});
      acc.record.last_free = std::max(acc.record.last_free, f->time);
      acc.record.total_lifetime_ns +=
          static_cast<double>(f->time > obj.alloc_time ? f->time - obj.alloc_time : 0);
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

      // Resolve against the live objects as of event i: nearest live
      // start at or below the address, containment-check that single
      // candidate.
      trace::StackId stack = trace::kInvalidStack;
      std::uint64_t start = 0;
      const LiveObject* obj = live_.floor(s->address, start);
      if (obj != nullptr && s->address < start + obj->size) stack = obj->stack;
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
  live_.for_each([&](const LiveObject& obj) {
    auto& acc = sites[obj.stack];
    acc.record.windows.push_back(LiveWindow{obj.alloc_time, last_time_});
    acc.record.last_free = std::max(acc.record.last_free, last_time_);
    acc.record.total_lifetime_ns +=
        static_cast<double>(last_time_ > obj.alloc_time ? last_time_ - obj.alloc_time : 0);
  });

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
