// Error paths and lesser-used options of the core workflow API, plus the
// CLI argument parser the ecohmem-* tools share.

#include <gtest/gtest.h>

#include "../../tools/cli_common.hpp"
#include "ecohmem/apps/synthetic.hpp"
#include "ecohmem/core/ecohmem.hpp"

namespace ecohmem {
namespace {

TEST(CoreErrors, SingleTierSystemCannotRunMemoryMode) {
  auto spec = memsim::ddr4_dram_spec();
  spec.is_fallback = true;
  const auto sys = memsim::MemorySystem::create({spec});
  ASSERT_TRUE(sys.has_value());
  const auto w = apps::make_synthetic({.seed = 3, .phases = 2});
  EXPECT_FALSE(core::run_memory_mode(w, *sys).has_value());
  EXPECT_FALSE(core::run_workflow(w, *sys).has_value());
}

TEST(CoreErrors, RunWithPlacementHumanReadableFormat) {
  const auto sys = *memsim::paper_system(6);
  const auto w = apps::make_synthetic({.seed = 4, .phases = 2});
  core::WorkflowOptions opt;
  opt.dram_limit = 8ull << 30;
  const auto base = core::run_workflow(w, sys, opt);
  ASSERT_TRUE(base.has_value());

  const auto run = core::run_with_placement(w, sys, base->placement, 8ull << 30,
                                            advisor::ReportFormat::kHumanReadable);
  ASSERT_TRUE(run.has_value()) << run.error();
  EXPECT_GT(run->alloc_overhead_ns, 0.0);  // HR matching is metered
}

TEST(CoreErrors, HumanReadableWithoutSymbolsFails) {
  const auto sys = *memsim::paper_system(6);
  auto w = apps::make_synthetic({.seed = 5, .phases = 2});
  core::WorkflowOptions opt;
  opt.dram_limit = 8ull << 30;
  const auto base = core::run_workflow(w, sys, opt);
  ASSERT_TRUE(base.has_value());

  w.symbols = nullptr;  // stripped binary
  EXPECT_FALSE(core::run_with_placement(w, sys, base->placement, 8ull << 30,
                                        advisor::ReportFormat::kHumanReadable)
                   .has_value());
}

TEST(CoreErrors, TinyDramBudgetStillRuns) {
  // Everything spills to the fallback; the workflow must not fail.
  const auto sys = *memsim::paper_system(6);
  const auto w = apps::make_synthetic({.seed = 6, .phases = 2});
  core::WorkflowOptions opt;
  opt.dram_limit = 1 << 20;  // 1 MiB
  const auto result = core::run_workflow(w, sys, opt);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_LE(result->placement.footprint_in("dram"), Bytes{1u << 20});
}

TEST(CliArgs, FlagsValuesAndPositionals) {
  const char* argv[] = {"tool", "--app", "lulesh", "pos1", "--bandwidth-aware",
                        "--dram-limit", "12GB", "pos2"};
  cli::Args args(8, const_cast<char**>(argv), {"app", "dram-limit"}, {"bandwidth-aware"});
  EXPECT_EQ(args.get("app"), "lulesh");
  EXPECT_TRUE(args.has("bandwidth-aware"));
  EXPECT_EQ(args.get_bytes("dram-limit", 0).value(), 12ull << 30);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
}

TEST(CliArgs, DefaultsAndMalformedValues) {
  const char* argv[] = {"tool", "--rate", "abc", "--dram-limit", "4Gb"};
  cli::Args args(5, const_cast<char**>(argv), {"rate", "dram-limit", "missing"}, {});
  // A malformed value is an error naming the flag, never the default.
  const auto rate = args.get_double("rate", 100.0);
  ASSERT_FALSE(rate.has_value());
  EXPECT_NE(rate.error().find("--rate"), std::string::npos) << rate.error();
  const auto dram = args.get_bytes("dram-limit", 12ull << 30);
  ASSERT_FALSE(dram.has_value());
  EXPECT_NE(dram.error().find("--dram-limit"), std::string::npos) << dram.error();
  // Absent flags still return their default.
  EXPECT_DOUBLE_EQ(args.get_double("missing", 7.0).value(), 7.0);
  EXPECT_EQ(args.get_bytes("missing", 64).value(), 64u);
  EXPECT_EQ(args.get("missing", "x"), "x");
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, TrailingFlagWithoutValueIsBoolean) {
  const char* argv[] = {"tool", "--verbose"};
  cli::Args args(2, const_cast<char**>(argv), {"verbose"}, {});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose"), "true");
}

TEST(CliArgs, ValueFlagNeverSwallowsTheNextFlag) {
  const char* argv[] = {"tool", "--out", "--stats"};
  cli::Args args(3, const_cast<char**>(argv), {"out"}, {"stats"});
  EXPECT_TRUE(args.unknown().empty());
  EXPECT_EQ(args.get("out"), "true");
  EXPECT_TRUE(args.has("stats"));
}

TEST(CliArgs, UndeclaredFlagIsReported) {
  // A misspelled or removed flag must not be silently ignored: the
  // first undeclared one is kept, and the tools exit 2 on it.
  const char* argv[] = {"tool", "--app", "hpcg", "--threads", "4", "--dram-capacty", "1GB"};
  cli::Args args(7, const_cast<char**>(argv), {"app", "dram-capacity"}, {"help"});
  EXPECT_EQ(args.unknown(), "--threads");
  EXPECT_FALSE(args.has("threads"));
  EXPECT_EQ(args.get("app"), "hpcg");
  EXPECT_EQ(cli::fail_unknown_flag(args), 2);
}

TEST(CliArgs, EmptyFlagIsUnknown) {
  const char* argv[] = {"tool", "--"};
  cli::Args args(2, const_cast<char**>(argv), {"app"}, {"help"});
  EXPECT_EQ(args.unknown(), "--");
}

}  // namespace
}  // namespace ecohmem
