#include "synth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecohmem/common/rng.hpp"

namespace perfbench {

using namespace ecohmem;

namespace {

constexpr Ns kWindowNs = 20'000'000;         // one kernel execution
constexpr std::size_t kUncorePerWindow = 8;  // IMC readings per window
constexpr double kSampleWeight = 5000.0;     // events one sample stands for
constexpr std::uint64_t kHeapBase = 1ull << 44;
constexpr double kStrayShare = 0.03;    // samples that hit no live object
constexpr int kModelRounds = 4;         // kernel sweeps of the model app
constexpr std::size_t kFunctions = 24;  // kernels of the application

struct SiteDraw {
  bool persistent = false;
  Bytes size = 0;
  std::size_t function = 0;
  double density = 1.0;  // relative misses per byte
  double store_share = 0.0;
  double alloc_weight = 1.0;
};

struct Instance {
  std::size_t site = 0;
  std::uint64_t id = 0;
  std::uint64_t address = 0;
  Bytes size = 0;
  unsigned size_class = 0;
  std::size_t death = 0;  // window it is freed in
};

double log_uniform(double u, double lo, double hi) {
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

/// `n` stratified uniforms in random order: one draw from each of the n
/// equal slices of [0, 1).
std::vector<double> strata(Rng& rng, std::size_t n) {
  std::vector<double> u(n);
  for (std::size_t k = 0; k < n; ++k) {
    u[k] = (static_cast<double>(k) + rng.next_double()) / static_cast<double>(n);
  }
  for (std::size_t k = n; k > 1; --k) std::swap(u[k - 1], u[rng.next_below(k)]);
  return u;
}

unsigned size_class_of(Bytes size) {
  unsigned c = 12;
  while ((Bytes{1} << c) < size) ++c;
  return c;
}

}  // namespace

SynthProfile make_synth_profile(const SynthSpec& spec) {
  Rng rng(spec.seed);
  const std::size_t n_sites = spec.sites;
  const std::size_t n_fn = kFunctions;
  const std::size_t n_win = spec.windows;

  // Every property of a site derives from one stratified draw through
  // fixed irrational strides, so the seed permutes and jitters a nearly
  // fixed set of sites instead of redrawing the application's shape.
  std::vector<SiteDraw> sites(n_sites);
  const auto u = strata(rng, n_sites);
  const auto stride = [](double x, double k) { return x * k - std::floor(x * k); };
  for (std::size_t i = 0; i < n_sites; ++i) {
    SiteDraw& s = sites[i];
    s.persistent = stride(u[i], 1.0) < 0.05;
    const double size_u = stride(u[i], 20.0 * 1.6180339887);
    s.size = static_cast<Bytes>(s.persistent ? log_uniform(size_u, 16.0 * (1 << 20), 1024.0 * (1 << 20))
                                             : log_uniform(size_u, 4096.0, 16.0 * (1 << 20)));
    s.function = std::min(n_fn - 1, static_cast<std::size_t>(stride(u[i], 2.2360679775 * 31.0) *
                                                             static_cast<double>(n_fn)));
    s.density = log_uniform(stride(u[i], 3.1415926536 * 17.0), 1.0, 1000.0);
    s.store_share = 0.5 * stride(u[i], 1.4142135624 * 23.0);
    s.alloc_weight = log_uniform(stride(u[i], 2.7182818285 * 13.0), 1.0, 50.0);
  }
  // Per-function bandwidth is fixed, not drawn: which sites the §VII
  // pass moves must not hinge on the seed.
  std::vector<double> fn_read_gbs(n_fn);
  for (std::size_t f = 0; f < n_fn; ++f) {
    fn_read_gbs[f] = 2.0 + 28.0 * stride(static_cast<double>(f), 0.6180339887);
  }

  // Event budget: ~6% allocations (and as many frees), markers and
  // uncore readings per window, samples for the rest.
  const std::uint64_t allocs_total = std::max<std::uint64_t>(spec.events * 6 / 100, n_sites);
  const std::uint64_t fixed = allocs_total * 2 + n_win * (kUncorePerWindow + 2);
  const std::uint64_t samples_total = spec.events > fixed ? spec.events - fixed : n_win;
  const std::size_t max_life = std::max<std::size_t>(2, n_win / 5);  // mean ~10% of the run

  std::vector<double> alloc_cdf;
  std::vector<std::size_t> transient;
  double acc = 0.0;
  for (std::size_t i = 0; i < n_sites; ++i) {
    if (sites[i].persistent) continue;
    acc += sites[i].alloc_weight;
    alloc_cdf.push_back(acc);
    transient.push_back(i);
  }

  SynthProfile out;
  trace::Trace& t = out.trace;
  t.sample_rate_hz = 100.0;
  for (std::size_t f = 0; f < n_fn; ++f) t.functions.intern("churn_kernel_" + std::to_string(f));

  std::vector<Instance> live;
  std::vector<std::vector<std::uint64_t>> free_slots(64);
  std::uint64_t bump = kHeapBase;
  std::uint64_t next_id = 1;
  std::vector<Bytes> live_bytes(n_sites, 0), peak_bytes(n_sites, 0);
  std::vector<double> site_loads(n_sites, 0.0), site_stores(n_sites, 0.0);

  Ns now = 0;
  const auto tick = [&now](Ns step) { now += std::max<Ns>(step, 1); };
  const auto allocate = [&](std::size_t site, std::size_t death) {
    Instance in;
    in.site = site;
    in.id = next_id++;
    in.size = std::max<Bytes>(
        64, static_cast<Bytes>(static_cast<double>(sites[site].size) * rng.uniform(0.5, 1.5)));
    in.size_class = size_class_of(in.size);
    auto& slots = free_slots[in.size_class];
    if (!slots.empty()) {
      in.address = slots.back();
      slots.pop_back();
    } else {
      in.address = bump;
      bump += Bytes{1} << in.size_class;
    }
    in.death = death;
    tick(50);
    t.events.emplace_back(trace::AllocEvent{now, in.id, in.address, in.size,
                                            static_cast<trace::StackId>(site),
                                            trace::AllocKind::kMalloc});
    live_bytes[site] += in.size;
    peak_bytes[site] = std::max(peak_bytes[site], live_bytes[site]);
    live.push_back(in);
  };
  const auto release = [&](std::size_t k) {
    const Instance in = live[k];
    tick(50);
    t.events.emplace_back(trace::FreeEvent{now, in.id});
    live_bytes[in.site] -= in.size;
    free_slots[in.size_class].push_back(in.address);
    live[k] = live.back();
    live.pop_back();
  };

  for (std::size_t i = 0; i < n_sites; ++i) {
    if (sites[i].persistent) allocate(i, n_win);
  }

  const std::uint64_t allocs_per_window = allocs_total / n_win;
  const std::uint64_t samples_per_window = samples_total / n_win;
  std::vector<double> cdf;
  for (std::size_t w = 0; w < n_win; ++w) {
    const Ns start = static_cast<Ns>(w) * kWindowNs;
    now = std::max(now, start);
    const std::size_t fn = (w / 2) % n_fn;
    const auto fn_id = static_cast<std::uint32_t>(fn);
    t.events.emplace_back(trace::MarkerEvent{now, fn_id, true});

    for (std::size_t k = live.size(); k-- > 0;) {
      if (live[k].death == w) release(k);
    }
    for (std::uint64_t a = 0; a < allocs_per_window && !transient.empty(); ++a) {
      const double pick = rng.next_double() * alloc_cdf.back();
      const auto it = std::lower_bound(alloc_cdf.begin(), alloc_cdf.end(), pick);
      const std::size_t idx =
          std::min(static_cast<std::size_t>(it - alloc_cdf.begin()), transient.size() - 1);
      allocate(transient[idx], w + 1 + rng.next_below(max_life));
    }

    // Samples over the live set, boosted on the running function's sites.
    cdf.clear();
    double total = 0.0;
    for (const auto& in : live) {
      const auto& s = sites[in.site];
      total += s.density * static_cast<double>(in.size) * (s.function == fn ? 8.0 : 1.0);
      cdf.push_back(total);
    }
    const Ns body = start + kWindowNs - now - 1000;
    const Ns gap = std::max<Ns>(1, body / (samples_per_window + kUncorePerWindow + 1));
    const std::uint64_t uncore_every = samples_per_window / kUncorePerWindow + 1;
    Ns last_uncore = now;
    for (std::uint64_t k = 0; k < samples_per_window; ++k) {
      tick(gap);
      trace::SampleEvent e;
      e.time = now;
      e.weight = kSampleWeight;
      e.function_id = fn_id;
      if (live.empty() || rng.next_double() < kStrayShare) {
        e.address = 0x1000 + rng.next_below(1u << 20) * kCacheLine;
        e.is_store = rng.next_double() < 0.3;
      } else {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.next_double() * total);
        const auto& in = live[std::min(static_cast<std::size_t>(it - cdf.begin()), live.size() - 1)];
        const Bytes lines = std::max<Bytes>(in.size / kCacheLine, 1);
        e.address = in.address + rng.next_below(lines) * kCacheLine;
        e.is_store = rng.next_double() < sites[in.site].store_share;
        (e.is_store ? site_stores : site_loads)[in.site] += kSampleWeight;
      }
      if (!e.is_store) e.latency_ns = rng.uniform(90.0, 400.0);
      t.events.emplace_back(e);
      if ((k + 1) % uncore_every == 0) {
        tick(gap);
        const double jitter = rng.uniform(0.9, 1.1);
        t.events.emplace_back(trace::UncoreBwEvent{now, now - last_uncore,
                                                   fn_read_gbs[fn] * jitter,
                                                   fn_read_gbs[fn] * jitter * 0.3});
        last_uncore = now;
      }
    }
    tick(500);
    t.events.emplace_back(trace::MarkerEvent{now, fn_id, false});
  }
  while (!live.empty()) release(live.size() - 1);

  // The application model behind the trace, with the same stacks.
  runtime::WorkloadBuilder b("synthetic-churn");
  b.static_footprint(Bytes{1} << 30);
  const bom::ModuleId modules[] = {b.add_module("churn.x", 8ull << 20, 64ull << 20),
                                   b.add_module("libsolver.so", 4ull << 20, 32ull << 20),
                                   b.add_module("libmpi.so.12", 3ull << 20, 24ull << 20)};
  std::vector<std::size_t> objects(n_sites);
  for (std::size_t i = 0; i < n_sites; ++i) {
    const std::size_t site =
        b.add_site(modules[i % 3], "churn_site_" + std::to_string(i),
                   "src/churn_" + std::to_string(i % 97) + ".cpp",
                   static_cast<std::uint32_t>(10 + i), 2 + i % 4);
    const bool hot = sites[i].density > 100.0;
    objects[i] = b.add_object(site, std::max<Bytes>(peak_bytes[i], 4096),
                              hot ? runtime::AccessPattern::kRandom
                                  : runtime::AccessPattern::kSequential,
                              0.1, 0.5);
  }
  std::vector<std::size_t> kernels(n_fn);
  for (std::size_t f = 0; f < n_fn; ++f) {
    std::vector<runtime::KernelAccess> accesses;
    for (std::size_t i = 0; i < n_sites; ++i) {
      if (sites[i].function != f) continue;
      runtime::KernelAccess a;
      a.object = objects[i];
      a.llc_loads = site_loads[i] / kModelRounds;
      a.llc_stores = site_stores[i] / kModelRounds;
      a.footprint = static_cast<double>(std::max<Bytes>(peak_bytes[i], 4096));
      accesses.push_back(a);
    }
    kernels[f] = b.add_kernel("churn_kernel_" + std::to_string(f), 2.0e9, 8.0e8,
                              std::move(accesses));
  }
  for (const std::size_t o : objects) b.alloc(o);
  for (int r = 0; r < kModelRounds; ++r) {
    for (const std::size_t k : kernels) b.run_kernel(k);
  }
  for (const std::size_t o : objects) b.free(o);
  out.app = b.build();

  for (std::size_t i = 0; i < n_sites; ++i) {
    if (t.stacks.intern(out.app.sites[i].stack) != i) {
      throw std::logic_error("synthetic sites must have distinct call stacks");
    }
  }
  return out;
}

}  // namespace perfbench
