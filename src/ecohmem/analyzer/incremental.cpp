#include "ecohmem/analyzer/incremental.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
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

/// The order of a site's windows in the result: by start, then end. A
/// total order, so the sorted list does not depend on the order the
/// windows were pushed in.
bool window_before(const LiveWindow& a, const LiveWindow& b) {
  return a.start != b.start ? a.start < b.start : a.end < b.end;
}

}  // namespace

bool IncrementalAggregator::LiveIndex::upsert(std::uint64_t start, const LiveObject& obj,
                                              LiveObject& displaced) {
  if (chunks_.empty()) {
    mins_.push_back(start);
    chunks_.push_back(Chunk{{start}, {obj}});
    return false;
  }
  // A start below every chunk goes to the front of the first one.
  const std::size_t c =
      start < mins_[0] ? 0 : last_at_or_below(mins_.data(), mins_.size(), start);
  Chunk& chunk = chunks_[c];
  const auto at = std::lower_bound(chunk.starts.begin(), chunk.starts.end(), start);
  const auto offset = at - chunk.starts.begin();
  if (at != chunk.starts.end() && *at == start) {
    displaced = std::exchange(chunk.objects[static_cast<std::size_t>(offset)], obj);
    return true;
  }
  chunk.starts.insert(at, start);
  chunk.objects.insert(chunk.objects.begin() + offset, obj);
  mins_[c] = chunk.starts.front();
  if (chunk.starts.size() <= kChunkCapacity) return false;

  // Split off the upper half into a new chunk right after this one.
  const auto half = static_cast<std::ptrdiff_t>(chunk.starts.size() / 2);
  Chunk upper{{chunk.starts.begin() + half, chunk.starts.end()},
              {chunk.objects.begin() + half, chunk.objects.end()}};
  chunk.starts.erase(chunk.starts.begin() + half, chunk.starts.end());
  chunk.objects.erase(chunk.objects.begin() + half, chunk.objects.end());
  const auto next = static_cast<std::ptrdiff_t>(c + 1);
  mins_.insert(mins_.begin() + next, upper.starts.front());
  chunks_.insert(chunks_.begin() + next, std::move(upper));
  return false;
}

bool IncrementalAggregator::LiveIndex::take(std::uint64_t start, std::uint64_t id,
                                            LiveObject& out) {
  if (chunks_.empty() || start < mins_[0]) return false;
  const std::size_t c = last_at_or_below(mins_.data(), mins_.size(), start);
  Chunk& chunk = chunks_[c];
  const std::size_t at = last_at_or_below(chunk.starts.data(), chunk.starts.size(), start);
  if (chunk.starts[at] != start || chunk.objects[at].id != id) return false;
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
    if (const trace::BadValue bad = trace::first_bad_value(event); bad.field != nullptr) {
      error_ = trace::describe_bad_value(i, bad);
      return unexpected(error_);
    }

    if (const auto* u = std::get_if<trace::UncoreBwEvent>(&event)) {
      if (!has_uncore_) {
        // Folds so far averaged the sample meter; the uncore meter replaces it.
        drop_folds();
        has_uncore_ = true;
      }
      max_period_ = std::max(max_period_, u->period_ns);
      const Ns t0 = u->time > u->period_ns ? u->time - u->period_ns : 0;
      if (t0 < fold_horizon_) drop_folds();
      uncore_meter_.add(0, t0, u->time,
                        (u->read_gbs + u->write_gbs) * static_cast<double>(u->period_ns));
    } else if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
      // sites_ has one slot per stack-table entry (kInvalidStack is past it).
      if (a->stack >= sites_.size()) {
        error_ = "alloc event with invalid stack id";
        return unexpected(error_);
      }
      // Address reuse while live: the previous object leaves the index
      // but stays live until its own free.
      LiveObject displaced;
      if (live_.upsert(a->address, LiveObject{a->size, a->stack, a->time, a->object_id},
                       displaced)) {
        displaced_.emplace(displaced.id, displaced);
      }
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
      if (!live_.take(addr_it->second, f->object_id, obj)) {
        // Not at its address any more: displaced by address reuse.
        const auto d = displaced_.lower_bound(f->object_id);
        if (d == displaced_.end() || d->first != f->object_id) {
          error_ = "double free of object id " + std::to_string(f->object_id);
          return unexpected(error_);
        }
        obj = d->second;
        displaced_.erase(d);
      }
      auto& acc = sites_[obj.stack];
      acc.live_bytes = acc.live_bytes >= obj.size ? acc.live_bytes - obj.size : 0;
      acc.closed.push_back(LiveWindow{obj.alloc_time, f->time});
      acc.record.last_free = std::max(acc.record.last_free, f->time);
      acc.record.total_lifetime_ns +=
          static_cast<double>(f->time > obj.alloc_time ? f->time - obj.alloc_time : 0);
      object_address_.erase(addr_it);
    } else if (const auto* s = std::get_if<trace::SampleEvent>(&event)) {
      if (!has_uncore_) {
        if (s->time < fold_horizon_) drop_folds();
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

void IncrementalAggregator::drop_folds() {
  if (fold_horizon_ == 0) return;
  for (SiteAccum& acc : sites_) acc.folds = {};
  alloc_folded_ = 0;
  fold_horizon_ = 0;
}

Expected<AnalysisResult> IncrementalAggregator::finalize(trace::TraceCoverage coverage) {
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
  const memsim::WindowAverages system_bw = bw_meter.window_averages(0);
  const Ns alloc_window = options_.alloc_window_ns;
  // The window [start, end) the execution-time average reads.
  const auto exec_average = [&](const LiveWindow& w) {
    return system_bw.average_gbs(w.start, std::max(w.end, w.start + 1));
  };

  // Move the fold horizon up: a later add starts at or after the last
  // event time minus the largest period (or drops the folds), and bins
  // past the meter's end have not been written yet.
  const Ns bin = bw_meter.bin_ns();
  const Ns reach = last_time_ > max_period_ ? (last_time_ - max_period_) / bin * bin : 0;
  fold_horizon_ =
      std::max(fold_horizon_, std::min(reach, static_cast<Ns>(result.system_bw.size()) * bin));

  // Fold what now lies below the horizon, in the order a fresh fold
  // adds it: allocation windows in allocation order, then each site's
  // closed windows in free order, each up to the first one that does
  // not.
  if (fold_horizon_ > 0) {
    for (; alloc_folded_ < alloc_bw_pending_.size(); ++alloc_folded_) {
      const auto [stack, w0] = alloc_bw_pending_[alloc_folded_];
      if (w0 + alloc_window > fold_horizon_) break;
      sites_[stack].folds.alloc_bw_sum += system_bw.average_gbs(w0, w0 + alloc_window);
    }
    for (SiteAccum& acc : sites_) {
      SiteFolds& folds = acc.folds;
      const auto from = acc.closed.begin() + static_cast<std::ptrdiff_t>(folds.closed);
      auto to = from;
      for (; to != acc.closed.end() && std::max(to->end, to->start + 1) <= fold_horizon_; ++to) {
        const double dur = static_cast<double>(to->duration());
        folds.exec_weighted += exec_average(*to) * dur;
        folds.exec_duration += dur;
      }
      if (to == from) continue;
      folds.closed = static_cast<std::size_t>(to - acc.closed.begin());
      const auto mid = folds.sorted.insert(folds.sorted.end(), from, to);
      std::sort(mid, folds.sorted.end(), window_before);
      std::inplace_merge(folds.sorted.begin(), mid, folds.sorted.end(), window_before);
    }
  }

  // The rest is folded for this result only, starting from the carried
  // sums: the remaining allocation windows in allocation order, ...
  std::vector<double> alloc_bw_sum(sites_.size());
  for (std::size_t k = 0; k < sites_.size(); ++k) alloc_bw_sum[k] = sites_[k].folds.alloc_bw_sum;
  for (std::size_t i = alloc_folded_; i < alloc_bw_pending_.size(); ++i) {
    const auto [stack, w0] = alloc_bw_pending_[i];
    alloc_bw_sum[stack] += system_bw.average_gbs(w0, w0 + alloc_window);
  }

  // ... and the windows of objects still live, which close at the last
  // event time: in ascending address order, then the displaced ones in
  // id order, grouped by site with that order kept.
  std::vector<std::size_t> open_begin(sites_.size() + 1, 0);
  live_.for_each([&](const LiveObject& obj) { ++open_begin[obj.stack + 1]; });
  for (const auto& [id, obj] : displaced_) ++open_begin[obj.stack + 1];
  for (std::size_t k = 1; k < open_begin.size(); ++k) open_begin[k] += open_begin[k - 1];
  std::vector<Ns> open_start(open_begin.back());
  {
    std::vector<std::size_t> fill(open_begin.begin(), open_begin.end() - 1);
    const auto place = [&](const LiveObject& obj) { open_start[fill[obj.stack]++] = obj.alloc_time; };
    live_.for_each(place);
    for (const auto& [id, obj] : displaced_) place(obj);
  }

  // Deterministic output order: by first allocation, then stack id.
  std::vector<trace::StackId> order;
  for (std::size_t stack = 0; stack < sites_.size(); ++stack) {
    if (sites_[stack].record.alloc_count > 0) order.push_back(static_cast<trace::StackId>(stack));
  }
  std::sort(order.begin(), order.end(), [&](trace::StackId a, trace::StackId b) {
    const Ns first_a = sites_[a].record.first_alloc;
    const Ns first_b = sites_[b].record.first_alloc;
    return first_a != first_b ? first_a < first_b : a < b;
  });

  result.sites.reserve(order.size());
  std::vector<LiveWindow> rest;
  for (const trace::StackId stack : order) {
    const SiteAccum& acc = sites_[stack];
    SiteRecord r = acc.record;

    rest.assign(acc.closed.begin() + static_cast<std::ptrdiff_t>(acc.folds.closed),
                acc.closed.end());
    for (std::size_t k = open_begin[stack]; k < open_begin[stack + 1]; ++k) {
      const Ns start = open_start[k];
      rest.push_back(LiveWindow{start, last_time_});
      r.last_free = std::max(r.last_free, last_time_);
      r.total_lifetime_ns += static_cast<double>(last_time_ > start ? last_time_ - start : 0);
    }

    r.mean_lifetime_ns = r.total_lifetime_ns / static_cast<double>(r.alloc_count);
    r.alloc_time_system_bw_gbs = alloc_bw_sum[stack] / static_cast<double>(r.alloc_count);
    if (acc.latency_weight > 0.0) {
      r.avg_load_latency_ns = acc.latency_sum / acc.latency_weight;
    }
    if (r.total_lifetime_ns > 0.0) {
      r.exec_bw_gbs = (r.load_misses + r.store_misses) * static_cast<double>(kCacheLine) /
                      r.total_lifetime_ns;
    }
    // Execution-time system bandwidth: average over the live windows.
    double weighted = acc.folds.exec_weighted;
    double total_dur = acc.folds.exec_duration;
    for (const LiveWindow& w : rest) {
      const double dur = static_cast<double>(w.duration());
      weighted += exec_average(w) * dur;
      total_dur += dur;
    }
    r.exec_time_system_bw_gbs = total_dur > 0.0 ? weighted / total_dur : 0.0;

    // Most carried windows sort before every other one: copy those, then
    // merge the overlap.
    std::sort(rest.begin(), rest.end(), window_before);
    const std::vector<LiveWindow>& folded = acc.folds.sorted;
    const auto cut = rest.empty() ? folded.end()
                                  : std::upper_bound(folded.begin(), folded.end(), rest.front(),
                                                     window_before);
    r.windows.reserve(folded.size() + rest.size());
    r.windows.assign(folded.begin(), cut);
    std::merge(cut, folded.end(), rest.begin(), rest.end(), std::back_inserter(r.windows),
               window_before);
    result.sites.push_back(std::move(r));
  }

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
