#include "ecohmem/profiler/profiler.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/runtime/engine.hpp"

namespace ecohmem::profiler {
namespace {

runtime::Workload two_object_workload(int iters) {
  runtime::WorkloadBuilder b("prof");
  const auto mod = b.add_module("p.x", 1 << 20, 0);
  const auto hot_site = b.add_site(mod, "hot", "p.cc", 10);
  const auto cold_site = b.add_site(mod, "cold", "p.cc", 20);
  const auto hot =
      b.add_object(hot_site, 1ull << 28, runtime::AccessPattern::kRandom, 0.1, 0.5, 0.0);
  const auto cold =
      b.add_object(cold_site, 1ull << 28, runtime::AccessPattern::kRandom, 0.1, 0.5, 0.0);
  // Hot gets 9x the loads of cold; cold gets all the stores.
  const auto k = b.add_kernel("kernel", 1e8, 1e7,
                              {runtime::KernelAccess{hot, 9e6, 0.0, 1 << 28},
                               runtime::KernelAccess{cold, 1e6, 2e6, 1 << 28}});
  b.alloc(hot).alloc(cold);
  for (int i = 0; i < iters; ++i) b.run_kernel(k);
  b.free(hot).free(cold);
  return b.build();
}

trace::Trace profile(const runtime::Workload& w, ProfilerOptions opt = {}) {
  const auto sys = *memsim::paper_system(6);
  Profiler prof(opt);
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&sys, eopt);
  runtime::FixedTierMode mode(&sys, 1);
  const auto metrics = engine.run(w, mode);
  EXPECT_TRUE(metrics.has_value());
  return prof.take_trace();
}

TEST(Profiler, RecordsAllocAndFreeEvents) {
  const auto t = profile(two_object_workload(3));
  int allocs = 0;
  int frees = 0;
  for (const auto& e : t.events) {
    if (std::holds_alternative<trace::AllocEvent>(e)) ++allocs;
    if (std::holds_alternative<trace::FreeEvent>(e)) ++frees;
  }
  EXPECT_EQ(allocs, 2);
  EXPECT_EQ(frees, 2);
  EXPECT_EQ(t.stacks.size(), 2u);
}

TEST(Profiler, EventsAreTimeOrdered) {
  const auto t = profile(two_object_workload(5));
  Ns prev = 0;
  for (const auto& e : t.events) {
    const Ns now = trace::event_time(e);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Profiler, SampleWeightsRecoverAbsoluteCounts) {
  // The weighted sample total must approximate the true miss count
  // regardless of the sampling rate.
  const runtime::Workload w = two_object_workload(10);
  ProfilerOptions opt;
  opt.sample_rate_hz = 200.0;
  const auto t = profile(w, opt);

  double sampled_loads = 0.0;
  for (const auto& e : t.events) {
    if (const auto* s = std::get_if<trace::SampleEvent>(&e)) {
      if (!s->is_store) sampled_loads += s->weight;
    }
  }
  // True demand misses: ~10 iterations x 10e6 requests, mostly missing.
  EXPECT_GT(sampled_loads, 5e7);
  EXPECT_LT(sampled_loads, 1.2e8);
}

TEST(Profiler, SamplesSplitProportionallyToMisses) {
  const auto t = profile(two_object_workload(10));
  const auto result = analyzer::analyze(t);
  ASSERT_TRUE(result.has_value()) << result.error();
  ASSERT_EQ(result->sites.size(), 2u);
  const auto& hot = result->sites[0];
  const auto& cold = result->sites[1];
  EXPECT_GT(hot.load_misses, 4.0 * cold.load_misses);
  EXPECT_GT(cold.store_misses, 0.0);
  EXPECT_DOUBLE_EQ(hot.store_misses, 0.0);
}

TEST(Profiler, SampleAddressesInsideObjects) {
  const auto t = profile(two_object_workload(5));
  // Re-derive object ranges from the alloc events.
  struct Range {
    std::uint64_t lo, hi;
  };
  std::vector<Range> ranges;
  for (const auto& e : t.events) {
    if (const auto* a = std::get_if<trace::AllocEvent>(&e)) {
      ranges.push_back({a->address, a->address + a->size});
    }
  }
  for (const auto& e : t.events) {
    if (const auto* s = std::get_if<trace::SampleEvent>(&e)) {
      bool inside = false;
      for (const auto& r : ranges) inside = inside || (s->address >= r.lo && s->address < r.hi);
      EXPECT_TRUE(inside);
    }
  }
}

TEST(Profiler, DeterministicForSameSeed) {
  ProfilerOptions opt;
  opt.seed = 99;
  const auto t1 = profile(two_object_workload(5), opt);
  const auto t2 = profile(two_object_workload(5), opt);
  ASSERT_EQ(t1.events.size(), t2.events.size());
  for (std::size_t i = 0; i < t1.events.size(); ++i) {
    EXPECT_EQ(trace::event_time(t1.events[i]), trace::event_time(t2.events[i]));
  }
}

TEST(Profiler, StoreSamplingCanBeDisabled) {
  ProfilerOptions opt;
  opt.sample_stores = false;
  const auto t = profile(two_object_workload(5), opt);
  for (const auto& e : t.events) {
    if (const auto* s = std::get_if<trace::SampleEvent>(&e)) {
      EXPECT_FALSE(s->is_store);
    }
  }
}

TEST(Profiler, UncoreReadingsPresentAndPlausible) {
  const auto t = profile(two_object_workload(5));
  double max_gbs = 0.0;
  int count = 0;
  for (const auto& e : t.events) {
    if (const auto* u = std::get_if<trace::UncoreBwEvent>(&e)) {
      ++count;
      max_gbs = std::max(max_gbs, u->read_gbs + u->write_gbs);
    }
  }
  EXPECT_GT(count, 0);
  EXPECT_GT(max_gbs, 0.1);
  EXPECT_LT(max_gbs, 80.0);
}

TEST(Profiler, MarkersBracketKernels) {
  const auto t = profile(two_object_workload(2));
  int depth = 0;
  int enters = 0;
  for (const auto& e : t.events) {
    if (const auto* m = std::get_if<trace::MarkerEvent>(&e)) {
      depth += m->is_enter ? 1 : -1;
      enters += m->is_enter ? 1 : 0;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(enters, 2);
}

TEST(Profiler, TakeTraceResetsState) {
  const runtime::Workload w = two_object_workload(2);
  const auto sys = *memsim::paper_system(6);
  Profiler prof;
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&sys, eopt);
  runtime::FixedTierMode mode(&sys, 1);
  ASSERT_TRUE(engine.run(w, mode).has_value());
  const auto first = prof.take_trace();
  EXPECT_GT(first.events.size(), 0u);
  const auto empty = prof.take_trace();
  EXPECT_EQ(empty.events.size(), 0u);
}

/// Compact rendering of an event list for pinning order: one token per
/// event, `<kind>@<time>`, samples also carrying their address.
std::string signature(const trace::Trace& t) {
  std::string out;
  for (const auto& e : t.events) {
    if (!out.empty()) out += ' ';
    if (const auto* s = std::get_if<trace::SampleEvent>(&e)) {
      out += (s->is_store ? "S@" : "L@") + std::to_string(s->time) + ":" +
             std::to_string(s->address);
    } else if (const auto* m = std::get_if<trace::MarkerEvent>(&e)) {
      out += (m->is_enter ? "E@" : "X@") + std::to_string(m->time);
    } else if (std::holds_alternative<trace::UncoreBwEvent>(e)) {
      out += "U@" + std::to_string(trace::event_time(e));
    } else if (std::holds_alternative<trace::AllocEvent>(e)) {
      out += "A@" + std::to_string(trace::event_time(e));
    } else {
      out += "F@" + std::to_string(trace::event_time(e));
    }
  }
  return out;
}

runtime::KernelObservation hand_observation(const runtime::KernelSpec* kernel, Ns start, Ns end) {
  runtime::KernelObservation obs;
  obs.start = start;
  obs.end = end;
  obs.kernel = kernel;
  obs.objects.push_back({0, 1ull << 20, 1ull << 16, 4e4, 1e4, 2e4, 120.0});
  obs.objects.push_back({1, 1ull << 24, 1ull << 16, 1e4, 3e4, 6e4, 300.0});
  obs.total_read_bytes = 1e6;
  obs.total_write_bytes = 5e5;
  return obs;
}

// A zero-span kernel puts its uncore reading one ns after its own end
// marker; take_trace() returns the stable time order all the same.
TEST(Profiler, HandDrivenZeroSpanKernelKeepsStableOrder) {
  const runtime::KernelSpec kernel{"k", 1e6, 1e5, {}};
  Profiler prof;
  prof.on_kernel(hand_observation(&kernel, 1000, 1000));
  prof.on_alloc(1000, 7, 1ull << 20, 1ull << 16, bom::CallStack{});
  EXPECT_EQ(signature(prof.take_trace()), "E@1000 X@1000 A@1000 U@1001");
}

// A free reported earlier than the last event lands at its time, behind
// every earlier-appended event of the same time.
TEST(Profiler, HandDrivenBackwardsFreeKeepsStableOrder) {
  const runtime::KernelSpec kernel{"k", 1e6, 1e5, {}};
  Profiler prof;
  prof.on_alloc(500, 1, 1ull << 20, 1ull << 16, bom::CallStack{});
  prof.on_alloc(500, 2, 1ull << 24, 1ull << 16, bom::CallStack{});
  prof.on_kernel(hand_observation(&kernel, 1000, 30'001'000));
  prof.on_free(30'001'000, 2);
  prof.on_free(500, 1);
  EXPECT_EQ(signature(prof.take_trace()),
            "A@500 A@500 F@500 E@1000 L@7664006:1059584 U@10001000 L@16021250:1065344 "
            "U@20001000 S@23833961:16782464 S@24050125:1056704 S@26397626:16832832 "
            "L@28761347:16813696 U@30001000 X@30001000 F@30001000");
}

/// Forwards to a Profiler and checks, after every hook, that the events
/// appended so far are already in time order.
class OrderCheckingObserver final : public runtime::ExecutionObserver {
 public:
  explicit OrderCheckingObserver(Profiler* prof) : prof_(prof) {}

  void on_alloc(Ns time, std::uint64_t object_uid, std::uint64_t address, Bytes size,
                const bom::CallStack& stack) override {
    prof_->on_alloc(time, object_uid, address, size, stack);
    check();
  }
  void on_free(Ns time, std::uint64_t object_uid) override {
    prof_->on_free(time, object_uid);
    check();
  }
  void on_kernel(const runtime::KernelObservation& observation) override {
    prof_->on_kernel(observation);
    check();
  }

  [[nodiscard]] std::size_t checked() const { return checked_; }

 private:
  void check() {
    const auto& events = prof_->trace().events;
    for (; checked_ < events.size(); ++checked_) {
      const Ns now = trace::event_time(events[checked_]);
      EXPECT_GE(now, last_) << "event " << checked_;
      last_ = now;
    }
  }

  Profiler* prof_;
  std::size_t checked_ = 0;
  Ns last_ = 0;
};

TEST(Profiler, TraceIsTimeOrderedMidRun) {
  const auto sys = *memsim::paper_system(6);
  Profiler prof;
  OrderCheckingObserver observer(&prof);
  runtime::EngineOptions eopt;
  eopt.observer = &observer;
  runtime::ExecutionEngine engine(&sys, eopt);
  runtime::FixedTierMode mode(&sys, 1);
  ASSERT_TRUE(engine.run(two_object_workload(5), mode).has_value());
  EXPECT_GT(observer.checked(), 100u);
  EXPECT_EQ(observer.checked(), prof.trace().events.size());
}

/// Property sweep (DESIGN.md D5): the analyzer's per-site loads are
/// stable across sampling seeds within a tolerance.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, SampledCountsStableAcrossSeeds) {
  ProfilerOptions opt;
  opt.seed = GetParam();
  const auto t = profile(two_object_workload(10), opt);
  const auto result = analyzer::analyze(t);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->sites.size(), 2u);
  const double ratio = result->sites[0].load_misses /
                       std::max(result->sites[1].load_misses, 1.0);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 16.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 2u, 3u, 42u, 0xdeadu));

}  // namespace
}  // namespace ecohmem::profiler
