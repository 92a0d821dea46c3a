#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <random>
#include <unordered_map>

namespace perfbench {

namespace {
volatile std::uint64_t g_reference_sink = 0;  // keeps the reference run's result alive
}  // namespace

double reference_ms() {
  static std::vector<std::uint64_t> slots(std::size_t{1} << 21);
  std::mt19937_64 rng(0x5eed);
  const auto start = Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t sum = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t k = rng();
    table[k % 50000] += k;
  }
  for (int i = 0; i < 6000; ++i) {
    if (const auto it = table.find(rng() % 50000); it != table.end()) sum += it->second;
  }
  std::vector<double> keys(12000);
  for (double& k : keys) k = static_cast<double>(rng() >> 11);
  std::sort(keys.begin(), keys.end());
  std::uint64_t x = sum + static_cast<std::uint64_t>(keys[keys.size() / 2]);
  for (int i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    slots[(x >> 20) & (slots.size() - 1)] += x;
  }
  g_reference_sink = x;
  return ms_since(start);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail tail_of(std::vector<double> values) {
  if (values.size() < 21) return {quantile(values, 0.5), 50.0};
  std::sort(values.begin(), values.end());
  const std::size_t idx = values.size() - 11;  // ten samples above it
  return {values[idx], 100.0 * static_cast<double>(idx + 1) / static_cast<double>(values.size())};
}

std::string describe(const std::vector<double>& values) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "p10 %.4g p50 %.4g [q1 %.4g, q3 %.4g] n=%zu",
                quantile(values, 0.1), quantile(values, 0.5), quantile(values, 0.25),
                quantile(values, 0.75), values.size());
  return buf;
}

// ---------------------------------------------------------------- spans

namespace {
std::mutex g_span_mu;
thread_local int t_current = -1;
thread_local bool t_helper = false;
}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::enable(bool on) { enabled_ = on; }

int Tracer::open(const char* layer, const char* name, bool wait) {
  const double now = ms_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(g_span_mu);
  SpanRecord r;
  r.layer = layer;
  r.name = name;
  r.start_ms = now;
  r.parent = t_current;
  r.op = op_;
  r.wait = wait;
  r.helper = t_helper;
  spans_.push_back(std::move(r));
  t_current = static_cast<int>(spans_.size() - 1);
  return t_current;
}

void Tracer::close(int id) {
  const double now = ms_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(g_span_mu);
  spans_[static_cast<std::size_t>(id)].end_ms = now;
  t_current = spans_[static_cast<std::size_t>(id)].parent;
}

int Tracer::begin_op(std::int64_t op) {
  {
    std::lock_guard<std::mutex> lock(g_span_mu);
    op_ = op;
  }
  t_current = -1;
  t_helper = false;
  return open("op", "op", false);
}

void Tracer::adopt(int parent) {
  t_current = parent;
  t_helper = true;
}

int Tracer::current() const { return t_current; }

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans_) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"layer\":\"%s\",\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                  "\"parent\":%d,\"op\":%lld,\"wait\":%s,\"helper\":%s}\n",
                  s.layer.c_str(), s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                  static_cast<long long>(s.op), s.wait ? "true" : "false",
                  s.helper ? "true" : "false");
    out << buf;
  }
  return static_cast<bool>(out);
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {"profiler",   "trace",   "analyzer",
                                                 "advisor",    "flexmalloc", "runtime",
                                                 "online",     "serve"};
  return names;
}

namespace {

/// True when some ancestor of span `i` belongs to the same layer.
bool nested_in_own_layer(const std::vector<SpanRecord>& spans, std::size_t i) {
  for (int p = spans[i].parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
    if (spans[static_cast<std::size_t>(p)].layer == spans[i].layer) return true;
  }
  return false;
}

}  // namespace

std::map<std::string, LayerTotals> layer_totals(const OpSpans& op) {
  const auto& spans = *op.spans;
  std::map<std::string, LayerTotals> totals;
  for (const auto& name : layer_names()) totals[name];
  std::vector<double> child_other_layer(op.last - op.first, 0.0);
  for (std::size_t i = op.first; i < op.last; ++i) {
    const auto& s = spans[i];
    if (s.parent < 0 || spans[static_cast<std::size_t>(s.parent)].layer == s.layer) continue;
    child_other_layer[static_cast<std::size_t>(s.parent) - op.first] += s.end_ms - s.start_ms;
  }
  for (std::size_t i = op.first; i < op.last; ++i) {
    const auto& s = spans[i];
    // Top-level spans besides the root are isolated layer passes.
    if (s.layer == "op" || s.parent < 0 || nested_in_own_layer(spans, i)) continue;
    auto it = totals.find(s.layer);
    if (it == totals.end()) continue;
    const double dur = s.end_ms - s.start_ms;
    if (s.wait) {
      it->second.wait_ms += dur;
      continue;
    }
    it->second.calls += 1.0;
    it->second.busy_ms += dur;
    it->second.self_ms += std::max(0.0, dur - child_other_layer[i - op.first]);
  }
  return totals;
}

double span_coverage(const OpSpans& op) {
  const auto& spans = *op.spans;
  const auto root = static_cast<int>(op.first);
  double covered = 0.0;
  for (std::size_t i = op.first; i < op.last; ++i) {
    const auto& s = spans[i];
    if (s.parent == root && !s.helper) covered += s.end_ms - s.start_ms;
  }
  const double dur = spans[op.first].end_ms - spans[op.first].start_ms;
  return dur > 0.0 ? covered / dur : 0.0;
}

double span_ms(const OpSpans& op, const std::string& layer, const std::string& name) {
  double total = 0.0;
  for (std::size_t i = op.first; i < op.last; ++i) {
    const auto& s = (*op.spans)[i];
    if (s.layer == layer && s.name == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
