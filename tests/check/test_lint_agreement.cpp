// Lint and loader agreement: every config the loaders reject must lint
// with an error carrying the loader's own message, every committed config
// must both load and lint clean, and every online-* rule id must fire on
// its fixture. The loaders own the checks (AdvisorConfig::validate,
// online::check_policy); these tests pin that lint reaches them.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/check/lint.hpp"
#include "ecohmem/online/policy_config.hpp"

namespace ecohmem::check {
namespace {

/// ctest runs each test in its own process, in parallel: the file name
/// carries the test's name so two tests never share a file.
std::string write_tmp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           "_" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

std::vector<Diagnostic> errors_of(const LintResult& result) {
  std::vector<Diagnostic> out;
  for (const auto& d : result.diagnostics) {
    if (d.severity == Severity::kError) out.push_back(d);
  }
  return out;
}

std::vector<Diagnostic> lint_policy(const std::string& text) {
  LintInputs inputs;
  inputs.online_path = write_tmp("agreement_policy.ini", text);
  const auto result = lint_files(inputs);
  EXPECT_TRUE(result.has_value()) << result.error();
  return result ? errors_of(*result) : std::vector<Diagnostic>{};
}

std::vector<Diagnostic> lint_advisor_config(const std::string& text) {
  LintInputs inputs;
  inputs.config_path = write_tmp("agreement_advisor.ini", text);
  const auto result = lint_files(inputs);
  EXPECT_TRUE(result.has_value()) << result.error();
  return result ? errors_of(*result) : std::vector<Diagnostic>{};
}

struct PolicyCase {
  const char* text;
  const char* rule;  ///< the online-* id that must carry the loader's message
};

// The inputs the loader's own tests reject (PolicyConfig.RejectsUnknownKey,
// RejectsOutOfRangeValues, RejectsMalformedValues), the cross-key checks,
// and one fixture for each rule id that has no range check of its own.
const PolicyCase kRejectedPolicies[] = {
    {"[online]\nsampel_rate = 0.5\n", "online-keys"},
    {"sample_rate = 0\n", "online-sample-rate"},
    {"sample_rate = 1.5\n", "online-sample-rate"},
    {"sample_rate = fast\n", "online-sample-rate"},
    {"ewma_alpha = -0.1\n", "online-ewma-alpha"},
    {"window = 0\n", "online-window"},
    {"window = many\n", "online-window"},
    {"hysteresis = -1\n", "online-hysteresis"},
    {"min_density = -2\n", "online-min-density"},
    {"max_moves_per_step = 0\n", "online-max-moves"},
    {"max_bytes_per_step = lots\n", "online-max-bytes"},
    {"bandwidth_fraction = 2\n", "online-bandwidth-fraction"},
    {"seed = x\n", "online-seed"},
    {"chunk_bytes = 3\n", "online-chunk-bytes"},
    {"chunk_bytes = 0\n", "online-chunk-bytes"},
    {"huge_object_bytes = 4096\n", "online-huge-object-bytes"},
    {"chunk_bytes = 4MB\nhuge_object_bytes = 2MB\n", "online-huge-object-bytes"},
};

TEST(LintAgreement, EveryRejectedPolicyLintsWithTheLoadersMessage) {
  std::vector<std::string> fired;
  for (const auto& c : kRejectedPolicies) {
    SCOPED_TRACE(c.text);
    const auto config = Config::parse(c.text);
    ASSERT_TRUE(config.has_value()) << config.error();
    const auto loaded = online::OnlinePolicyConfig::from_config(*config);
    ASSERT_FALSE(loaded.has_value());

    const auto errors = lint_policy(c.text);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].rule, c.rule);
    EXPECT_EQ(errors[0].message, loaded.error());
    fired.push_back(errors[0].rule);
  }
  // Every online-* rule in the registry fires on one of the fixtures.
  const RuleRegistry registry = RuleRegistry::builtin();
  for (const auto& rule : registry.rules()) {
    const std::string id(rule->id());
    if (id.rfind("online-", 0) != 0) continue;
    EXPECT_NE(std::find(fired.begin(), fired.end(), id), fired.end()) << id;
  }
}

TEST(LintAgreement, EveryPolicyKeyHasItsOwnRule) {
  for (const char* const* key = online::policy_keys(); *key != nullptr; ++key) {
    SCOPED_TRACE(*key);
    const std::string text = std::string(*key) + " = not-a-number\n";
    const auto errors = lint_policy(text);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].rule, "online-keys");
    EXPECT_EQ(errors[0].rule.rfind("online-", 0), 0u);
    const auto loaded = online::OnlinePolicyConfig::from_config(*Config::parse(text));
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(errors[0].message, loaded.error());
  }
}

TEST(LintAgreement, PolicyWithEveryViolationReportsThemAll) {
  const std::string text =
      "[online]\nsample_rate = 2\nwindow = 0\nchunk_bytes = 3\nsampel_rate = 0.5\n";
  const auto checked = online::check_policy(*Config::parse(text));
  EXPECT_EQ(checked.issues.size(), 4u);

  const auto errors = lint_policy(text);
  std::vector<std::string> rules;
  for (const auto& d : errors) rules.push_back(d.rule);
  std::sort(rules.begin(), rules.end());
  EXPECT_EQ(rules, (std::vector<std::string>{"online-chunk-bytes", "online-keys",
                                             "online-sample-rate", "online-window"}));

  // The loader still stops at the first, in its order: unknown keys first.
  const auto loaded = online::OnlinePolicyConfig::from_config(*Config::parse(text));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("unknown key 'sampel_rate'"), std::string::npos);
}

constexpr const char* kTwoTiers =
    "[memory]\nname = dram\nlimit = 1GB\n%DRAM%\n"
    "[memory]\nname = pmem\nlimit = 1TB\norder = 1\nfallback = true\n";

std::string two_tiers(const std::string& dram_extra) {
  std::string text = kTwoTiers;
  text.replace(text.find("%DRAM%"), 6, dram_extra);
  return text;
}

TEST(LintAgreement, EveryRejectedAdvisorConfigLintsWithTheLoadersMessage) {
  // AdvisorConfig.ValidationErrors' inputs, then the checks validate()
  // adds beyond them.
  const std::vector<std::string> rejected = {
      "[advisor]\n",
      "[memory]\nname = dram\nlimit = 1GB\n",
      "[memory]\nname = a\nlimit = 1GB\nfallback = true\n[memory]\nname = a\nlimit = 1GB\n",
      "[advisor]\nfootprint = nonsense\n[memory]\nname = a\nlimit = 1GB\nfallback = true\n",
      "[memory]\nlimit = 1GB\nfallback = true\n",
      "[memory]\nname = a\nfallback = true\n",
      two_tiers("load_coef = nan"),
      two_tiers("load_coef = -1"),
      two_tiers("store_coef = inf"),
      two_tiers("fallback = true"),
      two_tiers("order = first"),
  };
  for (const auto& text : rejected) {
    SCOPED_TRACE(text);
    const auto loaded = advisor::AdvisorConfig::from_config(*Config::parse(text));
    ASSERT_FALSE(loaded.has_value());
    const auto errors = lint_advisor_config(text);
    ASSERT_FALSE(errors.empty());
    EXPECT_TRUE(errors[0].rule == "config-load" || errors[0].rule == "config-coefficients")
        << errors[0].rule;
    EXPECT_EQ(errors[0].message, loaded.error());
  }
}

TEST(LintAgreement, AdvisorValidateListsEveryViolation) {
  const std::string text =
      "[memory]\nname = a\nlimit = 0\nload_coef = nan\nstore_coef = -1\n"
      "[memory]\nname = a\nlimit = 1GB\n";
  const auto errors = lint_advisor_config(text);
  ASSERT_EQ(errors.size(), 5u);  // zero limit, two coefficients, duplicate, no fallback
  for (const auto& d : errors) EXPECT_EQ(d.rule, "config-coefficients");
}

TEST(LintAgreement, CommittedConfigsLoadAndLintClean) {
  std::size_t advisor_configs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ECOHMEM_CONFIGS_DIR)) {
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(path);
    LintInputs inputs;
    if (name == "online_policy.ini") {
      const auto loaded = online::OnlinePolicyConfig::load(path);
      EXPECT_TRUE(loaded.has_value()) << loaded.error();
      inputs.online_path = path;
    } else if (name.rfind("advisor_", 0) == 0 && entry.path().extension() == ".ini") {
      const auto file = Config::load(path);
      ASSERT_TRUE(file.has_value()) << file.error();
      const auto loaded = advisor::AdvisorConfig::from_config(*file);
      EXPECT_TRUE(loaded.has_value()) << loaded.error();
      inputs.config_path = path;
      ++advisor_configs;
    } else {
      continue;
    }
    const auto result = lint_files(inputs);
    ASSERT_TRUE(result.has_value()) << result.error();
    EXPECT_TRUE(result->diagnostics.empty())
        << result->diagnostics.front().rule << ": " << result->diagnostics.front().message;
  }
  EXPECT_GE(advisor_configs, 1u);
}

TEST(LintAgreement, MigrationLogWithAnUnloadablePolicyIsNotClean) {
  // migration-chunk-alignment cannot check offsets against a policy the
  // loader rejects; the policy's own rule must say why.
  LintInputs inputs;
  inputs.migration_log_path = write_tmp(
      "agreement_migration.csv",
      "at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
      "2000,9,1,0,2097152,2097152,1\n"
      "# summary scheduled=1 applied=1 partial=1 cancelled=0 migrated_bytes=2097152\n");
  inputs.online_path = write_tmp("agreement_migration_policy.ini", "[online]\nchunk_bytes = 3\n");
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_FALSE(result->ok());
  const auto errors = errors_of(*result);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rule, "online-chunk-bytes");
}

}  // namespace
}  // namespace ecohmem::check
