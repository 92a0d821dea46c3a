// perfbench: the repository benchmark runner. Runs one workload in this
// process and prints, as the last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from spans recorded around every call into a layer.
// See README.md for the workloads, metrics and their expected coupling.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ecohmem::Status;

constexpr int kSetupRepeats = 5;
constexpr double kMinSpanCoverage = 0.95;

struct Args {
  std::string workload;
  RunOptions run;
  double seconds = 10.0;
};

/// The per-layer metrics a traced run prints, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"profiler.run_ms", "ms"},
    {"profiler.events", "count"},
    {"profiler.overhead_ms", "ms"},
    {"trace.write_ms", "ms"},
    {"trace.read_ms", "ms"},
    {"trace.read_mb_per_s", "MB/s"},
    {"trace.bytes", "B"},
    {"trace.blocks", "count"},
    {"analyzer.analyze_ms", "ms"},
    {"analyzer.events_per_s", "1/s"},
    {"analyzer.sites", "count"},
    {"analyzer.attributed_ratio", "ratio"},
    {"analyzer.fold_ms", "ms"},
    {"analyzer.finalize_ms", "ms"},
    {"advisor.density_ms", "ms"},
    {"advisor.bw_aware_ms", "ms"},
    {"advisor.report_ms", "ms"},
    {"advisor.moves", "count"},
    {"flexmalloc.parse_ms", "ms"},
    {"flexmalloc.create_ms", "ms"},
    {"flexmalloc.lookups", "count"},
    {"flexmalloc.match_hit_ratio", "ratio"},
    {"flexmalloc.oom_redirects", "count"},
    {"runtime.replay_ms", "ms"},
    {"runtime.memmode_ms", "ms"},
    {"runtime.steps_per_s", "1/s"},
    {"runtime.allocations", "count"},
    {"online.replay_ms", "ms"},
    {"online.overhead_ms", "ms"},
    {"online.migrations", "count"},
    {"online.partial", "count"},
    {"online.applied_ratio", "ratio"},
    {"online.migrated_mb", "MB"},
    {"serve.hello_ms", "ms"},
    {"serve.ingest_block_ms_p50", "ms"},
    {"serve.ingest_block_ms_tail", "ms"},
    {"serve.busy_ratio", "ratio"},
    {"serve.busy_wait_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.concurrent_query_ms", "ms"},
    {"bench.op_ms_untraced", "ms"},
    {"bench.op_ms_traced", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
};

/// Metric name -> (layer, span name) for the span-timed values.
struct SpanSource {
  const char* metric;
  const char* layer;
  const char* span;
};
constexpr SpanSource kSpanSources[] = {
    {"profiler.run_ms", "profiler", "run"},
    {"trace.write_ms", "trace", "write"},
    {"trace.read_ms", "trace", "read"},
    {"analyzer.analyze_ms", "analyzer", "analyze"},
    {"analyzer.fold_ms", "analyzer", "fold"},
    {"analyzer.finalize_ms", "analyzer", "finalize"},
    {"advisor.density_ms", "advisor", "density"},
    {"advisor.bw_aware_ms", "advisor", "bw_aware"},
    {"advisor.report_ms", "advisor", "report"},
    {"flexmalloc.parse_ms", "flexmalloc", "parse"},
    {"flexmalloc.create_ms", "flexmalloc", "create"},
    {"runtime.replay_ms", "runtime", "replay"},
    {"runtime.memmode_ms", "runtime", "memmode"},
    {"online.replay_ms", "online", "replay"},
    {"serve.hello_ms", "serve", "hello"},
    {"serve.concurrent_query_ms", "serve", "concurrent_query"},
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.run.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.run.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "fig6-pipeline") return make_fig6_pipeline(args.run);
  if (args.workload == "analyze-churn") return make_analyze_churn(args.run);
  if (args.workload == "online-phase") return make_online_phase(args.run);
  if (args.workload == "serve-mixed") return make_serve_mixed(args.run);
  return nullptr;
}

double per_second(double count, double ms) { return ms > 0.0 ? count / (ms / 1000.0) : 0.0; }

/// Everything the runner accumulates over the ops it ran. Op, query
/// and rate values are host-normalised (see scaled_to_reference).
struct Tally {
  std::vector<double> op_ms;
  std::vector<double> wall_op_ms;    // as measured, for the summary lines
  std::vector<double> reference_ms;  // the reference run after each op
  std::vector<std::vector<double>> op_ms_by_kind;  // per op of a round
  std::vector<std::vector<double>> events_per_s_by_kind;
  std::vector<std::vector<double>> query_ms_by_kind;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<std::map<std::string, double>> layers;  // traced ops only
  std::vector<double> coverage;                       // traced ops only
};

/// The factor that turns a wall time taken between two reference runs
/// into the time it would have taken on the reference host. The host is
/// a shared virtual machine whose speed drifts by up to 50% over minutes
/// and flips between a fast and a slow state within seconds; the
/// reference computation slows with it, while a change to ecohmem moves
/// only the op.
double scaled_to_reference(double ref_before_ms, double ref_after_ms) {
  return kReferenceMs / (0.5 * (ref_before_ms + ref_after_ms));
}

/// Runs whole rounds of ops until `seconds` have passed (at least one
/// round). With `timed`, every op lands in the tally, bracketed by
/// reference runs; otherwise the round is warm-up. Traced ops get a root
/// span and their layer values.
bool run_rounds(Workload& w, std::size_t& next_op, double seconds, bool timed, bool traced,
                Tally& tally) {
  tally.op_ms_by_kind.resize(w.ops_per_round());
  tally.events_per_s_by_kind.resize(w.ops_per_round());
  tally.query_ms_by_kind.resize(w.ops_per_round());
  const auto start = Clock::now();
  double ref_before = timed ? reference_ms() : 0.0;
  do {
    for (std::size_t k = 0; k < w.ops_per_round(); ++k) {
      const std::size_t index = next_op++;
      OpResult result;
      const auto op_start = Clock::now();
      Status status;
      int root = -1;
      if (traced) {
        root = tracer().begin_op(static_cast<std::int64_t>(index));
        status = w.op(index, result);
        tracer().close(root);
      } else {
        status = w.op(index, result);
      }
      const double op_ms = ms_since(op_start) - result.reference_ms_in_op;
      tally.attempted += 1 + result.queries_attempted;
      tally.failed += (status ? 0 : 1) + result.queries_failed;
      if (!status) {
        if (tally.first_error.empty()) tally.first_error = status.error();
        return false;
      }
      if (!timed) continue;
      const double ref_after = reference_ms();
      const double scale = scaled_to_reference(ref_before, ref_after);
      ref_before = ref_after;
      tally.wall_op_ms.push_back(op_ms);
      tally.reference_ms.push_back(ref_after);
      tally.op_ms.push_back(op_ms * scale);
      tally.op_ms_by_kind[k].push_back(op_ms * scale);
      tally.events_per_s_by_kind[k].push_back(
          per_second(result.events, (result.events_ms > 0.0 ? result.events_ms : op_ms) * scale));
      for (std::size_t i = 0; i < result.query_ms.size(); ++i) {
        const double query_scale = i < result.query_reference_ms.size()
                                       ? kReferenceMs / result.query_reference_ms[i]
                                       : scale;
        tally.query_ms_by_kind[k].push_back(result.query_ms[i] * query_scale);
      }
      if (traced) {
        if (auto s = w.layer_passes(index); !s) {
          if (tally.first_error.empty()) tally.first_error = "layer pass: " + s.error();
          tally.failed += 1;
          return false;
        }
        const OpSpans op{&tracer().spans(), static_cast<std::size_t>(root),
                         tracer().spans().size()};
        for (const auto& src : kSpanSources) {
          result.layer[src.metric] = span_ms(op, src.layer, src.span);
        }
        for (const auto& [layer, t] : layer_totals(op)) {
          result.layer[layer + ".calls"] = t.calls;
          result.layer[layer + ".busy_ms"] = t.busy_ms;
          result.layer[layer + ".self_ms"] = t.self_ms;
          result.layer[layer + ".wait_ms"] = t.wait_ms;
        }
        tally.coverage.push_back(span_coverage(op));
        tally.layers.push_back(std::move(result.layer));
      }
    }
  } while (ms_since(start) < seconds * 1000.0);
  return true;
}

/// A statistic of per-op values; for rounds of several op kinds (fig6's
/// apps), the geometric mean of the per-kind statistics, so that every
/// kind weighs the same.
double per_kind(const std::vector<std::vector<double>>& by_kind,
                const std::function<double(const std::vector<double>&)>& stat) {
  if (by_kind.size() == 1) return stat(by_kind.front());
  double log_sum = 0.0;
  for (const auto& values : by_kind) log_sum += std::log(stat(values));
  return by_kind.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(by_kind.size()));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }
double tail(const std::vector<double>& values) { return tail_of(values).value; }

/// One layer value over the traced ops: its mean over each round's ops
/// (an op lacking it counts 0), then the median over rounds. With one op
/// per round this is the per-op median; on fig6-pipeline it is the
/// five-app average, so each app's layers show.
double round_median(const Tally& tally, std::size_t round, const std::string& name) {
  std::vector<double> per_round;
  for (std::size_t r = 0; r + round <= tally.layers.size(); r += round) {
    double sum = 0.0;
    for (std::size_t k = r; k < r + round; ++k) {
      if (const auto it = tally.layers[k].find(name); it != tally.layers[k].end()) {
        sum += it->second;
      }
    }
    per_round.push_back(sum / static_cast<double>(round));
  }
  return quantile(per_round, 0.5);
}

Metrics layer_metrics(const Tally& untraced, const Tally& traced, std::size_t round) {
  const auto layer_median = [&traced, round](const std::string& name) {
    return round_median(traced, round, name);
  };
  Metrics m;
  for (const auto& lm : kLayerMetrics) m[lm.name] = {layer_median(lm.name), lm.unit};
  for (const auto& layer : layer_names()) {
    m[layer + ".calls"] = {layer_median(layer + ".calls"), "count"};
    m[layer + ".busy_ms"] = {layer_median(layer + ".busy_ms"), "ms"};
    m[layer + ".self_ms"] = {layer_median(layer + ".self_ms"), "ms"};
    m[layer + ".wait_ms"] = {layer_median(layer + ".wait_ms"), "ms"};
  }
  // Derived rates and differences, from the medians above.
  const auto value = [&m](const char* name) { return m[name].value; };
  m["trace.read_mb_per_s"].value = per_second(value("trace.bytes") / 1e6, value("trace.read_ms"));
  m["analyzer.events_per_s"].value =
      per_second(layer_median("_analyzer.events"), value("analyzer.analyze_ms"));
  const double replay_ms = value("runtime.replay_ms");
  m["runtime.steps_per_s"].value = per_second(layer_median("_runtime.steps"), replay_ms);
  if (value("runtime.memmode_ms") > 0.0 && value("profiler.run_ms") > 0.0) {
    m["profiler.overhead_ms"].value = value("profiler.run_ms") - value("runtime.memmode_ms");
  }
  if (value("online.replay_ms") > 0.0) {
    m["online.overhead_ms"].value = value("online.replay_ms") - replay_ms;
  }
  const double untraced_ms = per_kind(untraced.op_ms_by_kind, median);
  m["bench.op_ms_untraced"].value = untraced_ms;
  m["bench.op_ms_traced"].value = per_kind(traced.op_ms_by_kind, median);
  m["bench.trace_overhead"].value =
      untraced_ms > 0.0 ? value("bench.op_ms_traced") / untraced_ms - 1.0 : 0.0;
  m["bench.span_coverage"].value = quantile(traced.coverage, 0.5);
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    // JSON has no infinity: a value past any limit prints as 1e300.
    const double v = std::isfinite(metric.value) ? metric.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  auto workload = make_workload(args);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), args.seconds,
              args.run.trace ? 1 : 0, args.run.smoke ? " smoke" : "");

  // Scratch files (trace, socket, spans) live under the build directory.
  std::filesystem::create_directories(".bench_build");

  // Set-up, repeated for a median; the last one's state is kept. Like
  // every op, each set-up is bracketed by reference runs (the first
  // reference run also faults in its array, so it stays out).
  std::vector<double> setup_s, wall_setup_s;
  const int repeats = args.run.smoke || args.run.trace ? 1 : kSetupRepeats;
  (void)reference_ms();
  double ref_before = reference_ms();
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    if (auto s = workload->setup(); !s) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", s.error().c_str());
      return 1;
    }
    const double seconds = ms_since(start) / 1000.0;
    const double ref_after = reference_ms();
    wall_setup_s.push_back(seconds);
    setup_s.push_back(seconds * scaled_to_reference(ref_before, ref_after));
    ref_before = ref_after;
  }
  std::printf("setup_s      %s (wall %s)\n", describe(setup_s).c_str(),
              describe(wall_setup_s).c_str());

  Tally warmup, untraced, traced;
  std::size_t next_op = 0;
  bool ok = run_rounds(*workload, next_op, 0.0, /*timed=*/false, false, warmup);
  const double budget = args.run.smoke ? 0.0 : args.seconds;
  if (ok && !args.run.trace) {
    ok = run_rounds(*workload, next_op, budget, true, false, untraced);
  } else if (ok) {
    // Untraced and traced rounds alternate, so drift in the host's speed
    // cannot pose as tracing overhead.
    const auto start = Clock::now();
    bool traced_round = false;
    while (ok && (ms_since(start) < budget * 1000.0 || traced.op_ms.empty())) {
      tracer().enable(traced_round);
      ok = run_rounds(*workload, next_op, 0.0, true, traced_round,
                      traced_round ? traced : untraced);
      traced_round = !traced_round;
    }
    tracer().enable(false);
    // Every stage of an op must be inside some layer's span.
    const double coverage = quantile(traced.coverage, 0.5);
    if (ok && coverage < kMinSpanCoverage) {
      ok = false;
      traced.first_error = "layer spans cover only " + std::to_string(coverage) +
                           " of the median traced op";
    }
  }
  double sim_speedup = 0.0;
  std::string error = warmup.first_error.empty()
                          ? (untraced.first_error.empty() ? traced.first_error
                                                          : untraced.first_error)
                          : warmup.first_error;
  if (ok) {
    if (auto s = workload->check(sim_speedup); !s) {
      ok = false;
      error = "output check: " + s.error();
    }
  }
  if (!error.empty()) std::fprintf(stderr, "perfbench: %s\n", error.c_str());

  const std::uint64_t attempted = warmup.attempted + untraced.attempted + traced.attempted;
  const std::uint64_t failed = warmup.failed + untraced.failed + traced.failed;

  std::printf("reference_ms %s (%.4g on the reference host)\n",
              describe(untraced.reference_ms).c_str(), kReferenceMs);
  std::printf("wall op_ms   %s\n", describe(untraced.wall_op_ms).c_str());
  for (std::size_t k = 0; k < untraced.op_ms_by_kind.size(); ++k) {
    std::printf("op_ms[%zu]     %s\n", k, describe(untraced.op_ms_by_kind[k]).c_str());
  }
  std::printf("op_ms_p50    %.4g\n", per_kind(untraced.op_ms_by_kind, median));
  for (std::size_t k = 0; k < untraced.query_ms_by_kind.size(); ++k) {
    const auto& queries = untraced.query_ms_by_kind[k];
    const Tail t = tail_of(queries);
    std::printf("query_ms[%zu]  %s, tail p%.1f = %.4g\n", k, describe(queries).c_str(),
                t.percentile, t.value);
  }
  std::printf("sim_speedup  %.6f\n", sim_speedup);

  Metrics metrics;
  if (!args.run.trace) {
    metrics["setup_s"] = {quantile(setup_s, 0.5), "s"};
    metrics["op_ms_p50"] = {per_kind(untraced.op_ms_by_kind, median), "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["sim_speedup"] = {sim_speedup, "x"};
    metrics["events_per_s"] = {per_kind(untraced.events_per_s_by_kind, median), "1/s"};
    metrics["query_ms_p50"] = {per_kind(untraced.query_ms_by_kind, median), "ms"};
    metrics["query_ms_tail"] = {per_kind(untraced.query_ms_by_kind, tail), "ms"};
  } else {
    std::printf("traced op_ms %s, span coverage %s\n", describe(traced.op_ms).c_str(),
                describe(traced.coverage).c_str());
    metrics = layer_metrics(untraced, traced, workload->ops_per_round());
    const std::string path = ".bench_build/perfbench-spans-" + args.workload + "-" +
                             std::to_string(args.run.seed) + ".jsonl";
    if (!tracer().write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      ok = false;
    } else {
      std::printf("spans        %zu written to %s\n", tracer().spans().size(), path.c_str());
    }
  }
  print_result(ok && failed == 0, attempted, failed, metrics);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
