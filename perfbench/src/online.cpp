// online-phase: the phase-shift app scaled to many phases, replayed
// app-direct with the online migration policy seeded from the advisor
// report — what `ecohmem-run --online P --from-report R` does. Set-up
// builds the app and runs core::run_workflow to produce the report; one
// op parses the report, builds the guidance seed and FlexMalloc (the
// query), and runs the online replay.

#include <optional>
#include <string>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "ecohmem/runtime/guidance.hpp"
#include "harness.hpp"
#include "pipeline.hpp"

namespace perfbench {

using namespace ecohmem;

namespace {

constexpr const char* kPolicyPath = "configs/online_policy.ini";
constexpr int kPhases = 96;  // the app's default is 8
// The query (report -> parsed entries -> guidance seed -> FlexMalloc)
// takes microseconds; one sample is the mean of this many, about 2 ms.
constexpr int kQueryRepeats = 256;

class OnlinePhase final : public Workload {
 public:
  explicit OnlinePhase(const RunOptions& options)
      : options_(options), sys_(*memsim::paper_system(6)) {}

  Status setup() override {
    auto policy = online::OnlinePolicyConfig::load(kPolicyPath);
    if (!policy) return unexpected(std::string(kPolicyPath) + ": " + policy.error());
    policy_ = *policy;
    policy_.seed = derive_seed(options_.seed, 0x0e);
    apps::AppOptions app_options;
    app_options.iterations = options_.smoke ? 8 : kPhases;
    app_ = apps::make_app("phase-shift", app_options);
    core::WorkflowOptions wf;
    wf.dram_limit = kDramLimit;
    wf.store_coef = kStoreCoef;
    wf.bandwidth_aware = true;
    wf.profile_seed = derive_seed(options_.seed, 0xf16);
    const auto workflow = core::run_workflow(app_, sys_, wf);
    if (!workflow) return unexpected("run_workflow: " + workflow.error());
    report_ = workflow->report_text;
    memmode_ns_ = workflow->baseline_metrics.total_ns;
    first_.reset();
    ops_ = 0;
    mismatches_ = 0;
    return {};
  }

  Status op(std::size_t index, OpResult& out) override {
    (void)index;
    // The query, kQueryRepeats times; the last result feeds the replay.
    out.queries_attempted += 1;
    Expected<flexmalloc::ParsedReport> parsed = unexpected("not run");
    Expected<runtime::GuidanceSeed> guidance = unexpected("not run");
    Expected<flexmalloc::FlexMalloc> fm = unexpected("not run");
    const bool ready = time_query(out, [&] {
      for (int r = 0; r < kQueryRepeats; ++r) {
        {
          Span span("flexmalloc", "parse");
          parsed = flexmalloc::parse_report(report_, *app_.modules);
        }
        if (!parsed) break;
        {
          Span span("runtime", "guidance");
          guidance = runtime::GuidanceSeed::build(app_, *parsed);
        }
        if (!guidance) break;
        Span span("flexmalloc", "create");
        fm = make_flexmalloc(sys_, *parsed, kDramLimit, app_.symbols.get(), true);
        if (!fm) break;
      }
      return parsed && guidance && fm;
    });
    out.query_ms.back() /= kQueryRepeats;
    if (!ready) {
      out.queries_failed += 1;
      return unexpected("report to allocator: " + (!parsed     ? parsed.error()
                                                   : !guidance ? guidance.error()
                                                               : fm.error()));
    }
    Expected<runtime::RunMetrics> run = unexpected("not run");
    {
      Span span("online", "replay");
      runtime::EngineOptions eopt;
      eopt.online_policy = &policy_;
      eopt.guidance = &*guidance;
      runtime::AppDirectMode mode(&sys_, &*fm);
      runtime::ExecutionEngine engine(&sys_, eopt);
      run = engine.run(app_, mode);
    }
    if (!run) return unexpected("online replay: " + run.error());

    out.events = static_cast<double>(app_.steps.size());
    if (tracer().enabled()) {
      record_flexmalloc(*fm, out);
      out.layer["runtime.allocations"] = static_cast<double>(run->allocations);
      out.layer["_runtime.steps"] = out.events;
      out.layer["online.migrations"] = static_cast<double>(run->migrations);
      out.layer["online.partial"] = static_cast<double>(run->migrations_partial);
      out.layer["online.applied_ratio"] =
          run->migrations_scheduled > 0
              ? static_cast<double>(run->migrations) /
                    static_cast<double>(run->migrations_scheduled)
              : 0.0;
      out.layer["online.migrated_mb"] = static_cast<double>(run->migrated_bytes) / 1e6;
    }
    if (run->migrations_scheduled != run->migrations + run->migrations_cancelled) {
      return unexpected("migrations_scheduled " + std::to_string(run->migrations_scheduled) +
                        " != applied " + std::to_string(run->migrations) + " + cancelled " +
                        std::to_string(run->migrations_cancelled));
    }
    if (!first_) {
      first_ = std::move(*run);
    } else if (run->migration_events != first_->migration_events ||
               run->total_ns != first_->total_ns) {
      mismatches_ += 1;
    }
    ops_ += 1;
    return {};
  }

  Status layer_passes(std::size_t index) override {
    (void)index;
    // The same report replayed statically and in memory mode: the
    // runtime's share of the online replay, and online.overhead_ms.
    const auto parsed = flexmalloc::parse_report(report_, *app_.modules);
    if (!parsed) return unexpected(parsed.error());
    auto fm = make_flexmalloc(sys_, *parsed, kDramLimit, app_.symbols.get(), true);
    if (!fm) return unexpected(fm.error());
    runtime::ExecutionEngine engine(&sys_, {});
    {
      Span span("runtime", "replay");
      runtime::AppDirectMode mode(&sys_, &*fm);
      if (auto m = engine.run(app_, mode); !m) return unexpected(m.error());
    }
    Span span("runtime", "memmode");
    const auto mm = memory_mode(sys_);
    if (auto m = engine.run(app_, *mm); !m) return unexpected(m.error());
    return {};
  }

  Status check(double& sim_speedup) override {
    if (!first_) return unexpected("no op ran");
    if (mismatches_ != 0) {
      return unexpected(std::to_string(mismatches_) + " of " + std::to_string(ops_) +
                        " online replays differ from the first (migration events or time)");
    }
    if (first_->migrations == 0) return unexpected("the online policy applied no migration");
    sim_speedup = static_cast<double>(memmode_ns_) / static_cast<double>(first_->total_ns);
    return {};
  }

 private:
  RunOptions options_;
  memsim::MemorySystem sys_;
  online::OnlinePolicyConfig policy_;
  runtime::Workload app_;
  std::string report_;
  Ns memmode_ns_ = 0;
  std::optional<runtime::RunMetrics> first_;
  std::size_t ops_ = 0;
  std::size_t mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_online_phase(const RunOptions& options) {
  return std::make_unique<OnlinePhase>(options);
}

}  // namespace perfbench
