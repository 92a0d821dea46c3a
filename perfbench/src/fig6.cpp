// fig6-pipeline: the paper's whole flow, stage by stage, on the five
// Fig. 6 mini-apps. One op is one app: profiling replay (memory mode with
// the profiler attached) -> v3 trace bytes -> TraceReader -> analyze ->
// density + bandwidth-aware advisor -> BOM report -> parse -> FlexMalloc
// -> app-direct replay. Set-up builds the apps and runs
// core::run_workflow on each, the reference every op must reproduce.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"
#include "harness.hpp"
#include "pipeline.hpp"

namespace perfbench {

using namespace ecohmem;

namespace {

struct AppSpec {
  const char* name;
  int default_iterations;  // the app model's own default
};
constexpr AppSpec kApps[] = {
    {"minife", 60}, {"minimd", 40}, {"lulesh", 20}, {"hpcg", 50}, {"cloverleaf3d", 30}};
constexpr int kIterationScale = 8;  // one op ~ several hundred ms
// The query (advisor passes + report) takes tens of microseconds on these
// apps; one sample is the mean over this many calls, a few ms in all.
constexpr int kQueryRepeats = 128;

struct App {
  std::string name;
  runtime::Workload workload;
  std::string reference_report;
  double reference_speedup = 0.0;
  double last_speedup = 0.0;
  std::size_t ops = 0;
  std::size_t mismatches = 0;
  std::string last_trace;  // v3 bytes of the latest op (traced runs)
};

class Fig6Pipeline final : public Workload {
 public:
  explicit Fig6Pipeline(const RunOptions& options)
      : options_(options), sys_(*memsim::paper_system(6)),
        config_(tier_config(sys_, kDramLimit)),
        profile_seed_(derive_seed(options.seed, 0xf16)) {}

  std::size_t ops_per_round() const override { return std::size(kApps); }

  Status setup() override {
    apps_.clear();
    for (const auto& spec : kApps) {
      App app;
      app.name = spec.name;
      apps::AppOptions app_options;
      app_options.iterations = spec.default_iterations * (options_.smoke ? 1 : kIterationScale);
      app.workload = apps::make_app(spec.name, app_options);
      core::WorkflowOptions wf;
      wf.dram_limit = kDramLimit;
      wf.store_coef = kStoreCoef;
      wf.bandwidth_aware = true;
      wf.profile_seed = profile_seed_;
      const auto reference = core::run_workflow(app.workload, sys_, wf);
      if (!reference) return unexpected(app.name + ": run_workflow: " + reference.error());
      app.reference_report = reference->report_text;
      app.reference_speedup = reference->speedup();
      apps_.push_back(std::move(app));
    }
    return {};
  }

  Status op(std::size_t index, OpResult& out) override {
    App& app = apps_[index % apps_.size()];
    const runtime::Workload& w = app.workload;

    profiler::ProfilerOptions popt;
    popt.seed = profile_seed_;
    popt.sample_stores = true;
    profiler::Profiler prof(popt);
    Expected<runtime::RunMetrics> baseline = unexpected("not run");
    trace::Trace profile;
    {
      Span span("profiler", "run");
      const auto mm = memory_mode(sys_);
      runtime::EngineOptions eopt;
      eopt.observer = &prof;
      runtime::ExecutionEngine engine(&sys_, eopt);
      baseline = engine.run(w, *mm);
      profile = prof.take_trace();
    }
    if (!baseline) return unexpected(app.name + ": profiling replay: " + baseline.error());

    std::string bytes;
    {
      Span span("trace", "write");
      std::ostringstream os;
      trace::TraceWriteOptions wopt;
      wopt.indexed = true;
      if (auto s = trace::write_trace(os, profile, *w.modules, wopt); !s) return s;
      bytes = std::move(os).str();
    }
    Expected<trace::TraceBundle> bundle = unexpected("not run");
    std::size_t blocks = 0;
    {
      Span span("trace", "read");
      std::istringstream is(bytes);
      auto reader = trace::TraceReader::from_stream(is);
      if (!reader) return unexpected(app.name + ": trace read: " + reader.error());
      blocks = reader->block_count();
      bundle = reader->read_all(1);
    }
    if (!bundle) return unexpected(app.name + ": trace decode: " + bundle.error());

    analyzer::AnalyzerOptions aopt;
    aopt.peak_pmem_bw_gbs = sys_.tier(sys_.fallback_index()).spec().peak_read_gbs;
    Expected<analyzer::AnalysisResult> analysis = unexpected("not run");
    {
      Span span("analyzer", "analyze");
      analysis = analyzer::analyze(bundle->trace, aopt);
    }
    if (!analysis) return unexpected(app.name + ": analyze: " + analysis.error());

    const auto advice = time_query(out, [&] {
      Expected<Advice> last = unexpected("not run");
      for (int r = 0; r < kQueryRepeats && (r == 0 || last); ++r) {
        last = advise(*analysis, config_, sys_.tier(0).name(),
                      sys_.tier(sys_.fallback_index()).name(), *w.modules, w.symbols.get());
      }
      return last;
    });
    out.query_ms.back() /= kQueryRepeats;
    out.queries_attempted += 1;
    if (!advice) {
      out.queries_failed += 1;
      return unexpected(app.name + ": " + advice.error());
    }

    Expected<flexmalloc::ParsedReport> parsed = unexpected("not run");
    {
      Span span("flexmalloc", "parse");
      parsed = flexmalloc::parse_report(advice->report, *w.modules);
    }
    if (!parsed) return unexpected(app.name + ": parse_report: " + parsed.error());
    Expected<flexmalloc::FlexMalloc> fm = unexpected("not run");
    {
      Span span("flexmalloc", "create");
      fm = make_flexmalloc(sys_, *parsed, kDramLimit, w.symbols.get(), false);
    }
    if (!fm) return unexpected(app.name + ": FlexMalloc: " + fm.error());
    Expected<runtime::RunMetrics> production = unexpected("not run");
    {
      Span span("runtime", "replay");
      runtime::AppDirectMode mode(&sys_, &*fm);
      runtime::ExecutionEngine engine(&sys_, {});
      production = engine.run(w, mode);
    }
    if (!production) return unexpected(app.name + ": app-direct replay: " + production.error());

    app.ops += 1;
    app.last_speedup = production->speedup_over(*baseline);
    if (advice->report != app.reference_report || app.last_speedup != app.reference_speedup) {
      app.mismatches += 1;
    }
    out.events = static_cast<double>(profile.events.size());
    if (tracer().enabled()) {
      out.layer["profiler.events"] = out.events;
      out.layer["trace.bytes"] = static_cast<double>(bytes.size());
      out.layer["trace.blocks"] = static_cast<double>(blocks);
      out.layer["analyzer.sites"] = static_cast<double>(analysis->sites.size());
      out.layer["analyzer.attributed_ratio"] = attributed_ratio(*analysis);
      out.layer["_analyzer.events"] = out.events;
      out.layer["advisor.moves"] = static_cast<double>(advice->moves);
      record_flexmalloc(*fm, out);
      out.layer["runtime.allocations"] = static_cast<double>(production->allocations);
      out.layer["_runtime.steps"] = static_cast<double>(w.steps.size());
      app.last_trace = std::move(bytes);
      last_sites_ = analysis->sites.size();
    }
    return {};
  }

  Status layer_passes(std::size_t index) override {
    App& app = apps_[index % apps_.size()];
    {
      // The profiling replay without the observer: profiler overhead.
      Span span("runtime", "memmode");
      const auto mm = memory_mode(sys_);
      runtime::ExecutionEngine engine(&sys_, {});
      if (auto m = engine.run(app.workload, *mm); !m) return unexpected(m.error());
    }
    std::istringstream is(app.last_trace);
    auto reader = trace::TraceReader::from_stream(is);
    if (!reader) return unexpected(reader.error());
    analyzer::AnalyzerOptions aopt;
    aopt.peak_pmem_bw_gbs = sys_.tier(sys_.fallback_index()).spec().peak_read_gbs;
    return fold_pass(*reader, aopt, last_sites_);
  }

  Status check(double& sim_speedup) override {
    double log_sum = 0.0;
    for (const App& app : apps_) {
      if (app.ops == 0) return unexpected(app.name + ": no op ran");
      if (app.mismatches != 0) {
        return unexpected(app.name + ": " + std::to_string(app.mismatches) + " of " +
                          std::to_string(app.ops) +
                          " ops differ from core::run_workflow (report text or speedup)");
      }
      log_sum += std::log(app.last_speedup);
    }
    sim_speedup = std::exp(log_sum / static_cast<double>(apps_.size()));
    return {};
  }

 private:
  RunOptions options_;
  memsim::MemorySystem sys_;
  advisor::AdvisorConfig config_;
  std::uint64_t profile_seed_;
  std::vector<App> apps_;
  std::size_t last_sites_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fig6_pipeline(const RunOptions& options) {
  return std::make_unique<Fig6Pipeline>(options);
}

}  // namespace perfbench
