// Learned placement benchmark: the trained ranking policy vs the greedy
// density knapsack, replayed through memsim (docs/learned.md).
//
// Trains the pairwise ranker on memsim-labelled perturbations of the
// five Fig. 6 mini-apps plus the adversarial large-hot synthetic, then
// compares end-to-end production runtimes under both policies at the
// same 12 GB DRAM budget.
//
// Acceptance (checked here and by ci.sh):
//   - on every Fig. 6 app the learned policy must match or beat greedy
//     (total_ns within the 0.1% tie tolerance);
//   - on large-hot — where greedy's density-per-byte ranking demotes the
//     hottest object — the learned policy must be strictly better.
// The measured numbers land in BENCH_learned_placement.json; a violated
// bound makes the binary exit nonzero.
//
// Usage: bench_learned_placement [--out FILE]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ecohmem/learn/corpus.hpp"
#include "ecohmem/learn/model.hpp"
#include "ecohmem/learn/policy.hpp"

using namespace ecohmem;

namespace {

/// Fig. 6 apps may not regress beyond this relative total_ns tolerance
/// (covers float noise when both policies pick the same DRAM set).
constexpr double kTieTolerance = 1e-3;

struct Row {
  std::string app;
  bool adversarial = false;
  double greedy_s = 0.0;
  double learned_s = 0.0;
  double speedup = 0.0;  ///< greedy_ns / learned_ns
  bool pass = false;
};

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

Expected<Row> run_app(const std::string& name, const memsim::MemorySystem& sys,
                      const learn::Model& model, Bytes dram_limit, double store_coef,
                      bool adversarial) {
  const runtime::Workload w = apps::make_app(name);

  core::WorkflowOptions opt;
  opt.dram_limit = dram_limit;
  opt.store_coef = store_coef;
  const auto workflow = core::run_workflow(w, sys, opt);
  if (!workflow) return unexpected(workflow.error());

  const auto config = core::advisor_config(sys, dram_limit, store_coef);
  const auto learned = learn::place_by_ranker(workflow->analysis, config, model);
  if (!learned) return unexpected(learned.error());
  const auto learned_run = core::run_with_placement(w, sys, *learned, dram_limit);
  if (!learned_run) return unexpected(learned_run.error());

  Row row;
  row.app = name;
  row.adversarial = adversarial;
  row.greedy_s = seconds(workflow->production_metrics.total_ns);
  row.learned_s = seconds(learned_run->total_ns);
  row.speedup = row.learned_s > 0.0 ? row.greedy_s / row.learned_s : 0.0;
  row.pass = adversarial ? row.learned_s < row.greedy_s
                         : row.learned_s <= row.greedy_s * (1.0 + kTieTolerance);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_learned_placement.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  }

  bench::print_header("Learned placement: trained ranker vs greedy density knapsack",
                      "learning-to-rank advisor subsystem (docs/learned.md)");

  const auto sys = *memsim::paper_system(6);
  const Bytes dram_limit = 12 * bench::kGiB;

  const std::vector<std::string> corpus_apps = {"minife", "minimd",       "lulesh",
                                                "hpcg",   "cloverleaf3d", "large-hot"};
  learn::CorpusOptions copt;
  copt.dram_limit = dram_limit;
  copt.store_coef = bench::kStoreCoef;
  std::printf("building training corpus (%zu apps)...\n", corpus_apps.size());
  const auto corpus = learn::build_corpus(corpus_apps, sys, copt);
  if (!corpus) {
    std::fprintf(stderr, "error: %s\n", corpus->pairs.empty() ? corpus.error().c_str()
                                                              : corpus.error().c_str());
    return 1;
  }

  learn::Model model;
  model.corpus = corpus->apps;
  const auto stats = learn::train_pairwise(model, corpus->pairs);
  if (!stats) {
    std::fprintf(stderr, "error: %s\n", stats.error().c_str());
    return 1;
  }
  std::printf("trained on %zu pairs (%zu memsim probes), pair accuracy %.1f%%\n\n",
              stats->pairs, corpus->sim_runs, stats->pair_accuracy * 100.0);

  struct AppSpec {
    const char* name;
    bool adversarial;
  };
  const std::vector<AppSpec> specs = {
      {"minife", false}, {"minimd", false},       {"lulesh", false},
      {"hpcg", false},   {"cloverleaf3d", false}, {"large-hot", true},
  };

  std::printf("%-14s %10s %10s %9s  %s\n", "app", "greedy(s)", "learned(s)", "speedup",
              "bound");
  std::vector<Row> rows;
  bool all_pass = true;
  for (const auto& spec : specs) {
    const auto row = run_app(spec.name, sys, model, dram_limit, bench::kStoreCoef,
                             spec.adversarial);
    if (!row) {
      std::printf("%-14s failed: %s\n", spec.name, row.error().c_str());
      all_pass = false;
      continue;
    }
    rows.push_back(*row);
    std::printf("%-14s %10.3f %10.3f %8.3fx  %s\n", row->app.c_str(), row->greedy_s,
                row->learned_s, row->speedup,
                row->pass ? (row->adversarial ? "strictly beats greedy" : "no worse")
                          : "VIOLATED");
    all_pass = all_pass && row->pass;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"learned_placement\",\n");
  std::fprintf(out, "  \"tie_tolerance\": %.6g,\n", kTieTolerance);
  std::fprintf(out, "  \"training_pairs\": %zu,\n", stats->pairs);
  std::fprintf(out, "  \"memsim_probes\": %zu,\n", corpus->sim_runs);
  std::fprintf(out, "  \"pair_accuracy\": %.4f,\n", stats->pair_accuracy);
  std::fprintf(out, "  \"model_hash\": \"%s\",\n", learn::model_content_hash(model).c_str());
  std::fprintf(out, "  \"all_pass\": %s,\n", all_pass ? "true" : "false");
  std::fprintf(out, "  \"apps\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"app\": \"%s\", \"adversarial\": %s, \"greedy_s\": %.6f, "
                 "\"learned_s\": %.6f, \"speedup_vs_greedy\": %.4f, \"pass\": %s}%s\n",
                 r.app.c_str(), r.adversarial ? "true" : "false", r.greedy_s, r.learned_s,
                 r.speedup, r.pass ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_pass) {
    std::fprintf(stderr, "error: learned placement acceptance bound violated\n");
    return 1;
  }
  return 0;
}
