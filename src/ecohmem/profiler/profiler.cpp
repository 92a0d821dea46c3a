#include "ecohmem/profiler/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ecohmem::profiler {

Profiler::Profiler(ProfilerOptions options) : options_(options), rng_(options.seed) {
  trace_.sample_rate_hz = options_.sample_rate_hz;
}

template <typename E>
void Profiler::append(const E& event) {
  out_of_order_ = out_of_order_ || event.time < last_time_;
  last_time_ = event.time;
  trace_.events.emplace_back(event);
}

void Profiler::on_alloc(Ns time, std::uint64_t object_uid, std::uint64_t address, Bytes size,
                        const bom::CallStack& stack) {
  trace::AllocEvent e;
  e.time = time;
  e.object_id = object_uid;
  e.address = address;
  e.size = size;
  e.stack = trace_.stacks.intern(stack);
  append(e);
}

void Profiler::on_free(Ns time, std::uint64_t object_uid) {
  append(trace::FreeEvent{time, object_uid});
}

void Profiler::draw_samples(const runtime::KernelObservation& obs, bool stores,
                            std::uint32_t function_id) {
  double total = 0.0;
  for (const auto& o : obs.objects) total += stores ? o.store_instructions : o.load_misses;
  if (total <= 0.0) return;

  const double duration_s = static_cast<double>(obs.end - obs.start) * 1e-9;
  double& carry = stores ? store_sample_carry_ : load_sample_carry_;
  const double budget = duration_s * options_.sample_rate_hz + carry;
  const auto n_samples = static_cast<std::uint64_t>(budget);
  carry = budget - static_cast<double>(n_samples);
  if (n_samples == 0) return;

  const double weight = total / static_cast<double>(n_samples);
  const Ns span = obs.end - obs.start;

  // Cumulative miss distribution over objects for proportional draws.
  cdf_.clear();
  double acc = 0.0;
  for (const auto& o : obs.objects) {
    acc += stores ? o.store_instructions : o.load_misses;
    cdf_.push_back(acc);
  }

  for (std::uint64_t s = 0; s < n_samples; ++s) {
    const double pick = rng_.next_double() * total;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), pick);
    const std::size_t idx = std::min(static_cast<std::size_t>(it - cdf_.begin()),
                                     obs.objects.size() - 1);
    const auto& obj = obs.objects[idx];

    trace::SampleEvent e;
    e.time = obs.start + (span > 0 ? rng_.next_below(span) : 0);
    const Bytes line_count = std::max<Bytes>(obj.size / kCacheLine, 1);
    e.address = obj.address + rng_.next_below(line_count) * kCacheLine;
    e.weight = weight;
    e.is_store = stores;
    e.function_id = function_id;
    if (!stores) {
      const double jitter =
          1.0 + options_.latency_jitter * (2.0 * rng_.next_double() - 1.0);
      e.latency_ns = obj.avg_load_latency_ns * jitter;
    }
    samples_.push_back(e);
  }
}

void Profiler::draw_uncore(const runtime::KernelObservation& obs) {
  const Ns span = obs.end > obs.start ? obs.end - obs.start : 1;
  const double duration_s = static_cast<double>(span) * 1e-9;
  const auto n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(duration_s * options_.sample_rate_hz));
  const Ns period = span / n > 0 ? span / n : 1;
  const double read_gbs = obs.total_read_bytes / static_cast<double>(span);
  const double write_gbs = obs.total_write_bytes / static_cast<double>(span);
  for (std::uint64_t k = 0; k < n; ++k) {
    trace::UncoreBwEvent e;
    e.time = obs.start + (k + 1) * period;
    e.period_ns = period;
    e.read_gbs = read_gbs;
    e.write_gbs = write_gbs;
    uncore_.push_back(e);
  }
}

void Profiler::order_samples(Ns start, Ns span) {
  // Stable sort by time in O(n) expected: the draws are uniform on
  // [start, start + span), so one bucket per sample holds O(1) of them.
  // A counting sort scatters them into their buckets in draw order; an
  // insertion sort then only moves samples within their bucket.
  const std::size_t n = samples_.size();
  if (n < 2 || span == 0) return;
  const Ns width = span / n + 1;  // (time - start) / width < n
  const auto bucket = [&](Ns time) { return static_cast<std::size_t>((time - start) / width); };
  bucket_start_.assign(n + 1, 0);
  for (const auto& s : samples_) ++bucket_start_[bucket(s.time) + 1];
  for (std::size_t b = 1; b <= n; ++b) bucket_start_[b] += bucket_start_[b - 1];
  ordered_.resize(n);
  for (const auto& s : samples_) ordered_[bucket_start_[bucket(s.time)]++] = s;
  for (std::size_t i = 1; i < n; ++i) {
    const trace::SampleEvent s = ordered_[i];
    std::size_t j = i;
    for (; j > 0 && ordered_[j - 1].time > s.time; --j) ordered_[j] = ordered_[j - 1];
    ordered_[j] = s;
  }
  std::swap(samples_, ordered_);
}

void Profiler::on_kernel(const runtime::KernelObservation& obs) {
  const std::uint32_t fn = trace_.functions.intern(obs.kernel->function);
  samples_.clear();
  uncore_.clear();
  if (options_.sample_loads) draw_samples(obs, /*stores=*/false, fn);
  if (options_.sample_stores) draw_samples(obs, /*stores=*/true, fn);
  if (options_.sample_uncore) draw_uncore(obs);
  order_samples(obs.start, obs.end - obs.start);

  // Merge the ordered samples with the (ascending) uncore readings; a
  // sample goes first on a tie, as it was drawn first.
  append(trace::MarkerEvent{obs.start, fn, true});
  auto reading = uncore_.begin();
  for (const auto& s : samples_) {
    for (; reading != uncore_.end() && reading->time < s.time; ++reading) append(*reading);
    append(s);
  }
  for (; reading != uncore_.end(); ++reading) append(*reading);
  append(trace::MarkerEvent{obs.end, fn, false});
}

trace::Trace Profiler::take_trace() {
  // Only hand-driven hooks can go back in time; restore the order they
  // broke, keeping append order among equal times.
  if (out_of_order_) {
    std::stable_sort(trace_.events.begin(), trace_.events.end(),
                     [](const trace::Event& a, const trace::Event& b) {
                       return trace::event_time(a) < trace::event_time(b);
                     });
  }
  trace::Trace out = std::move(trace_);
  trace_ = trace::Trace{};
  trace_.sample_rate_hz = options_.sample_rate_hz;
  load_sample_carry_ = 0.0;
  store_sample_carry_ = 0.0;
  last_time_ = 0;
  out_of_order_ = false;
  return out;
}

}  // namespace ecohmem::profiler
