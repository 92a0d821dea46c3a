// Lint and loader agreement: every config the loaders reject must lint
// with an error carrying the loader's own message, every committed config
// must both load and lint clean, and every online-* rule id must fire on
// its fixture. The same holds for a v3 trace whose footer index the strict
// reader rejects. The loaders own the checks (AdvisorConfig::validate,
// online::check_policy, trace::codec::index_issues); these tests pin that
// lint reaches them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/check/lint.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/trace/trace_file.hpp"

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

/// The bytes of a valid v3 trace: 128 events in eight blocks of 16, the
/// first events of the blocks at t = 0, 80, ..., 560 ns.
std::string v3_trace_bytes() {
  trace::Trace t;
  bom::ModuleTable modules;
  modules.add_module("app.x", 1 << 20);
  const auto site = t.stacks.intern(bom::CallStack{{{0, 0x100}}});
  for (std::uint64_t i = 0; i < 64; ++i) {
    t.events.emplace_back(
        trace::AllocEvent{10 * i, i + 1, 0x1000 + (i << 12), 64, site, trace::AllocKind::kMalloc});
    t.events.emplace_back(trace::FreeEvent{10 * i + 5, i + 1});
  }
  trace::TraceWriteOptions opt;
  opt.block_events = 16;
  std::ostringstream os;
  EXPECT_TRUE(trace::write_trace(os, t, modules, opt).ok());
  return std::move(os).str();
}

/// One footer index of v3_trace_bytes, editable in place: its trailer
/// word `entry_count` and `footer_offset`, and entry `i`'s `offset`,
/// `count` and `first_time` words.
class IndexBytes {
 public:
  explicit IndexBytes(std::string& bytes) : bytes_(bytes) {}
  std::uint64_t get(std::size_t at) const {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + at, 8);
    return v;
  }
  void set(std::size_t at, std::uint64_t v) { std::memcpy(bytes_.data() + at, &v, 8); }
  std::size_t entry_count() const { return bytes_.size() - 24; }
  std::size_t footer_offset() const { return bytes_.size() - 16; }
  std::size_t offset(std::size_t i) const { return get(footer_offset()) + 24 * i; }
  std::size_t count(std::size_t i) const { return offset(i) + 8; }
  std::size_t first_time(std::size_t i) const { return offset(i) + 16; }

 private:
  std::string& bytes_;
};

TEST(LintAgreement, EveryIndexFaultLintsWithTheReadersMessage) {
  struct IndexCase {
    const char* fault;
    std::function<void(IndexBytes&)> damage;
    std::size_t issues;  ///< trace-v3-index errors, the reader's message first
  };
  const IndexCase cases[] = {
      {"block 0 off the event section start",
       [](IndexBytes& x) { x.set(x.offset(0), x.get(x.offset(0)) + 1); }, 1},
      {"block at the footer",
       [](IndexBytes& x) { x.set(x.offset(7), x.get(x.footer_offset())); }, 2},
      {"empty block", [](IndexBytes& x) { x.set(x.count(3), 0); }, 2},
      {"timestamp going backwards", [](IndexBytes& x) { x.set(x.first_time(4), 0); }, 1},
      {"zero-byte block",
       [](IndexBytes& x) { x.set(x.offset(5), x.get(x.offset(4))); }, 1},
      {"no blocks over a non-empty event section",
       [](IndexBytes& x) {
         x.set(x.footer_offset(), x.entry_count());
         x.set(x.entry_count(), 0);
       },
       2},
      {"counts off the header total",
       [](IndexBytes& x) { x.set(x.count(0), x.get(x.count(0)) + 1); }, 1},
      {"reserved count bit on a middle block (a retired bit-packed body)",
       [](IndexBytes& x) { x.set(x.count(4), x.get(x.count(4)) | (1ull << 63)); }, 1},
  };
  const std::string clean = v3_trace_bytes();
  for (const IndexCase& c : cases) {
    SCOPED_TRACE(c.fault);
    std::string bytes = clean;
    IndexBytes index(bytes);
    c.damage(index);
    const std::string path = write_tmp("agreement_index.trc", bytes);
    const auto loaded = trace::load_trace(path);
    ASSERT_FALSE(loaded.has_value());

    LintInputs inputs;
    inputs.trace_path = path;
    const auto result = lint_files(inputs);
    ASSERT_TRUE(result.has_value()) << result.error();
    std::vector<Diagnostic> index_errors;
    for (const auto& d : errors_of(*result)) {
      if (d.rule == "trace-v3-index") index_errors.push_back(d);
    }
    ASSERT_EQ(index_errors.size(), c.issues);
    EXPECT_EQ(index_errors[0].message, loaded.error());
  }
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
