// ecohmem-train — offline trainer for the learned placement policy
// (docs/learned.md).
//
// Profiles each corpus app, enumerates placement perturbations, scores
// them with the memory simulator to derive pairwise site preferences,
// trains the linear ranker by deterministic SGD and writes the versioned
// model file that `ecohmem-advisor --policy learned --model` consumes.
//
// Usage:
//   ecohmem-train --apps minife,lulesh,... --out model.ehm
//                 [--config <advisor.ini>] [--dram-limit 12GB]
//                 [--store-coef 0.125] [--epochs 400] [--learning-rate 0.05]
//                 [--l2 1e-4] [--seed N] [--max-solo 16] [--max-swaps 12]
//                 [--iterations N] [--scale F] [--pmem-dimms 6]
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.

#include <cstdio>

#include "cli_common.hpp"
#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/common/config.hpp"
#include "ecohmem/learn/corpus.hpp"
#include "ecohmem/learn/model.hpp"

using namespace ecohmem;

int main(int argc, char** argv) {
  const cli::Args args(argc, argv,
                       {"apps", "config", "dram-limit", "epochs", "iterations", "l2",
                        "learning-rate", "max-solo", "max-swaps", "out", "pmem-dimms", "scale",
                        "seed", "store-coef"},
                       {"help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help") || !args.has("apps") || !args.has("out")) {
    std::printf(
        "usage: ecohmem-train --apps <a,b,...> --out <model.ehm>\n"
        "                     [--config <advisor.ini>] [--dram-limit 12GB]\n"
        "                     [--store-coef 0.125] [--epochs 400]\n"
        "                     [--learning-rate 0.05] [--l2 1e-4] [--seed N]\n"
        "                     [--max-solo 16] [--max-swaps 12]\n"
        "                     [--iterations N] [--scale F] [--pmem-dimms 6]\n"
        "  Trains the pairwise ranking model on memsim-labelled placement\n"
        "  perturbations of the named apps (docs/learned.md). With --config\n"
        "  the DRAM budget and store coefficient come from the advisor\n"
        "  config's fastest tier.\n");
    return args.has("help") ? 0 : 2;
  }

  const std::vector<std::string> app_list = strings::split(args.get("apps"), ',');
  const std::vector<std::string> known = apps::app_names();
  if (app_list.empty()) return cli::fail_usage("--apps expects a comma-separated list");
  for (const auto& app : app_list) {
    bool found = false;
    for (const auto& k : known) found = found || k == app;
    if (!found) return cli::fail_usage("--apps names unknown app '" + app + "'");
  }

  const auto epochs = args.get_int_in_range("epochs", 400, 1, 1000000);
  if (!epochs) return cli::fail_usage(epochs.error());
  const auto seed = args.get_int_in_range("seed", 0x5eed, 0, 1ll << 62);
  if (!seed) return cli::fail_usage(seed.error());
  const auto max_solo = args.get_int_in_range("max-solo", 16, 1, 4096);
  if (!max_solo) return cli::fail_usage(max_solo.error());
  const auto max_swaps = args.get_int_in_range("max-swaps", 12, 0, 4096);
  if (!max_swaps) return cli::fail_usage(max_swaps.error());
  const auto iterations = args.get_int_in_range("iterations", 0, 0, 1000000);
  if (!iterations) return cli::fail_usage(iterations.error());
  const auto pmem_dimms = args.get_int_in_range("pmem-dimms", 6, 1, 64);
  if (!pmem_dimms) return cli::fail_usage(pmem_dimms.error());

  const auto dram_limit = args.get_bytes("dram-limit", 12ull << 30);
  if (!dram_limit) return cli::fail_usage(dram_limit.error());
  const auto store_coef = args.get_double("store-coef", 0.125);
  if (!store_coef) return cli::fail_usage(store_coef.error());
  const auto scale = args.get_double("scale", 1.0);
  if (!scale) return cli::fail_usage(scale.error());
  if (!(*scale > 0.0)) return cli::fail_usage("--scale must be positive");
  const auto learning_rate = args.get_double("learning-rate", 0.05);
  if (!learning_rate) return cli::fail_usage(learning_rate.error());
  const auto l2 = args.get_double("l2", 1e-4);
  if (!l2) return cli::fail_usage(l2.error());

  learn::CorpusOptions copt;
  copt.dram_limit = *dram_limit;
  copt.store_coef = *store_coef;
  copt.max_single_sites = static_cast<std::size_t>(*max_solo);
  copt.max_swaps = static_cast<std::size_t>(*max_swaps);
  copt.app_iterations = static_cast<int>(*iterations);
  copt.app_scale = *scale;

  if (args.has("config")) {
    const auto file = Config::load(args.get("config"));
    if (!file) return cli::fail_load(args.get("config"), file.error());
    auto parsed = advisor::AdvisorConfig::from_config(*file);
    if (!parsed) return cli::fail_load(args.get("config"), parsed.error());
    copt.dram_limit = parsed->tiers.front().limit;
    copt.store_coef = parsed->tiers.front().store_coef;
  }

  learn::TrainOptions topt;
  topt.epochs = static_cast<int>(*epochs);
  topt.learning_rate = *learning_rate;
  topt.l2 = *l2;
  topt.seed = static_cast<std::uint64_t>(*seed);

  const auto system = memsim::paper_system(static_cast<int>(*pmem_dimms));
  if (!system) return cli::fail(system.error());

  std::printf("building corpus from %zu app(s)...\n", app_list.size());
  const auto corpus = learn::build_corpus(app_list, *system, copt);
  if (!corpus) return cli::fail(corpus.error());
  for (const auto& app : corpus->per_app) {
    std::printf("  %-14s %4zu sites, %4zu pairs, %4zu memsim runs\n", app.app.c_str(),
                app.sites, app.pairs, app.sim_runs);
  }

  learn::Model model;
  model.corpus = corpus->apps;
  const auto stats = learn::train_pairwise(model, corpus->pairs, topt);
  if (!stats) return cli::fail(stats.error());

  if (const auto s = learn::save_model(model, args.get("out")); !s) {
    return cli::fail(s.error());
  }

  std::printf("trained on %zu pairs (%zu memsim runs): %d epochs, loss %.4f, "
              "pair accuracy %.1f%%\n",
              stats->pairs, corpus->sim_runs, stats->epochs, stats->final_loss,
              stats->pair_accuracy * 100.0);
  const auto& names = learn::feature_names();
  for (std::size_t i = 0; i < learn::kFeatureCount; ++i) {
    std::printf("  w[%-24s] = %+.4f\n", std::string(names[i]).c_str(), model.weights[i]);
  }
  std::printf("model %s (schema %s) written to %s\n",
              learn::model_content_hash(model).c_str(),
              strings::to_hex(model.schema_hash).c_str(), args.get("out").c_str());
  return 0;
}
