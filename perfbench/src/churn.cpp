// analyze-churn: the ecohmem-advisor path on a large synthetic profile.
// Set-up generates a seeded ~2M-event trace (synth.hpp) and writes it
// once as a v3 file; one op opens it (mmapped), decodes it, analyzes it,
// runs both advisor passes and renders the report. Profiler, runtime and
// FlexMalloc are not on the op's path.

#include <cstdio>
#include <string>
#include <unistd.h>

#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "synth.hpp"

namespace perfbench {

using namespace ecohmem;

namespace {

// One query sample is the mean of this many advisor calls (about 50 ms),
// long enough for the host's sub-second speed swings to average out.
constexpr int kQueryRepeats = 8;

class AnalyzeChurn final : public Workload {
 public:
  explicit AnalyzeChurn(const RunOptions& options)
      : options_(options), sys_(*memsim::paper_system(6)),
        config_(tier_config(sys_, kDramLimit)),
        path_(".bench_build/perfbench-churn-" + std::to_string(::getpid()) + ".trc") {}

  ~AnalyzeChurn() override { std::remove(path_.c_str()); }
  AnalyzeChurn(const AnalyzeChurn&) = delete;
  AnalyzeChurn& operator=(const AnalyzeChurn&) = delete;

  Status setup() override {
    SynthSpec spec;
    spec.seed = derive_seed(options_.seed, 0xc4);
    if (options_.smoke) {
      spec.events = 60'000;
      spec.sites = 300;
      spec.windows = 48;
    }
    profile_ = make_synth_profile(spec);
    trace::TraceWriteOptions wopt;
    wopt.indexed = true;
    if (auto s = trace::save_trace(path_, profile_.trace, *profile_.app.modules, wopt); !s) {
      return s;
    }
    profile_.trace.events = {};  // the op reads the file, not this copy
    reports_.clear();
    return {};
  }

  Status op(std::size_t index, OpResult& out) override {
    (void)index;
    Expected<trace::TraceBundle> bundle = unexpected("not run");
    std::uint64_t bytes = 0;
    std::size_t blocks = 0;
    {
      Span span("trace", "read");
      auto reader = trace::TraceReader::open(path_);
      if (!reader) return unexpected("trace open: " + reader.error());
      bytes = reader->byte_size();
      blocks = reader->block_count();
      bundle = reader->read_all(1);
    }
    if (!bundle) return unexpected("trace decode: " + bundle.error());
    Expected<analyzer::AnalysisResult> analysis = unexpected("not run");
    {
      Span span("analyzer", "analyze");
      analysis = analyzer::analyze(bundle->trace, analyzer_options(bundle->coverage));
    }
    if (!analysis) return unexpected("analyze: " + analysis.error());

    const auto advice = time_query(out, [&] {
      Expected<Advice> last = unexpected("not run");
      for (int r = 0; r < kQueryRepeats && (r == 0 || last); ++r) {
        last = advise(*analysis, config_, sys_.tier(0).name(),
                      sys_.tier(sys_.fallback_index()).name(), bundle->modules, nullptr);
      }
      return last;
    });
    out.query_ms.back() /= kQueryRepeats;
    out.queries_attempted += 1;
    if (!advice) {
      out.queries_failed += 1;
      return unexpected(advice.error());
    }
    reports_.push_back(fnv1a(advice->report));
    if (reports_.size() == 1) first_report_ = advice->report;
    out.events = static_cast<double>(bundle->trace.events.size());
    if (tracer().enabled()) {
      out.layer["trace.bytes"] = static_cast<double>(bytes);
      out.layer["trace.blocks"] = static_cast<double>(blocks);
      out.layer["analyzer.sites"] = static_cast<double>(analysis->sites.size());
      out.layer["analyzer.attributed_ratio"] = attributed_ratio(*analysis);
      out.layer["_analyzer.events"] = out.events;
      out.layer["advisor.moves"] = static_cast<double>(advice->moves);
      sites_ = analysis->sites.size();
    }
    return {};
  }

  Status layer_passes(std::size_t index) override {
    (void)index;
    auto reader = trace::TraceReader::open(path_);
    if (!reader) return unexpected(reader.error());
    return fold_pass(*reader, analyzer_options({}), sites_);
  }

  Status check(double& sim_speedup) override {
    if (reports_.empty()) return unexpected("no op ran");
    for (const std::uint64_t h : reports_) {
      if (h != reports_.front()) return unexpected("report hash differs across ops");
    }
    const auto speedup = simulate_report(profile_.app, sys_, first_report_, kDramLimit);
    if (!speedup) return unexpected("simulated replay: " + speedup.error());
    sim_speedup = *speedup;
    return {};
  }

 private:
  analyzer::AnalyzerOptions analyzer_options(const trace::TraceCoverage& coverage) const {
    analyzer::AnalyzerOptions aopt;
    aopt.peak_pmem_bw_gbs = sys_.tier(sys_.fallback_index()).spec().peak_read_gbs;
    aopt.coverage = coverage;
    return aopt;
  }

  RunOptions options_;
  memsim::MemorySystem sys_;
  advisor::AdvisorConfig config_;
  std::string path_;
  SynthProfile profile_;
  std::vector<std::uint64_t> reports_;
  std::string first_report_;
  std::size_t sites_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_analyze_churn(const RunOptions& options) {
  return std::make_unique<AnalyzeChurn>(options);
}

}  // namespace perfbench
