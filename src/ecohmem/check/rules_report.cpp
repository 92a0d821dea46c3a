/// \file rules_report.cpp
/// Advisor-soundness and runtime-drift rules: the placement map handed to
/// FlexMalloc must respect the configured tier capacities, name only
/// declared tiers, keep the §VII bandwidth-aware moves inside the
/// DRAM/PMEM classes, and reference only sites that exist in the trace it
/// was derived from — the "silent profile/placement drift" failure mode.

#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/bom/format.hpp"
#include "ecohmem/check/rule.hpp"
#include "ecohmem/common/strings.hpp"
#include "ecohmem/learn/model.hpp"

namespace ecohmem::check::rules {

namespace {

class NamedRule : public Rule {
 public:
  NamedRule(std::string_view id, std::string_view description)
      : id_(id), description_(description) {}

  [[nodiscard]] std::string_view id() const final { return id_; }
  [[nodiscard]] std::string_view description() const final { return description_; }

 protected:
  std::string_view id_;
  std::string_view description_;
};

/// BOM rendering that tolerates module ids outside `modules` (a report
/// parsed against a different table must not crash its own linter).
std::string render_stack(const bom::CallStack& cs, const bom::ModuleTable* modules) {
  std::string out;
  for (std::size_t i = 0; i < cs.frames.size(); ++i) {
    if (i > 0) out += bom::kFrameSeparator;
    const bom::Frame& f = cs.frames[i];
    if (modules != nullptr && f.module < modules->size()) {
      out += modules->module(f.module).name;
    } else {
      out += "module#" + std::to_string(f.module);
    }
    out += "!" + strings::to_hex(f.offset);
  }
  return out;
}

/// A stable text key for a report entry's stack (BOM or human-readable).
std::string entry_key(const flexmalloc::ReportEntry& entry) {
  if (const auto* hs = std::get_if<bom::HumanStack>(&entry.stack)) {
    return bom::format_human(*hs);
  }
  // BOM stacks render module ids directly; entries came from one report,
  // so equal stacks produce equal keys.
  return render_stack(std::get<bom::CallStack>(entry.stack), nullptr);
}

class ConfigCoefficientsRule final : public NamedRule {
 public:
  ConfigCoefficientsRule()
      : NamedRule("config-coefficients",
                  "the tier list passes AdvisorConfig::validate (named unique tiers, positive "
                  "limits, finite non-negative coefficients, one fallback)") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.config != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    for (auto& message : ctx.config->validate()) {
      out.push_back(error(std::string(id_), ctx.config_name, std::move(message)));
    }
    return out;
  }
};

class ReportCapacityRule final : public NamedRule {
 public:
  ReportCapacityRule()
      : NamedRule("report-capacity",
                  "per-tier footprint charges must not exceed the configured limit") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.report != nullptr && ctx.config != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    std::unordered_map<std::string, Bytes> charged;
    for (const auto& entry : ctx.report->entries) {
      Bytes& used = charged[entry.tier];
      // Saturate instead of wrapping: a hostile report must not overflow
      // the accounting it is being checked against.
      used = entry.size > std::numeric_limits<Bytes>::max() - used
                 ? std::numeric_limits<Bytes>::max()
                 : used + entry.size;
    }
    for (const auto& tier : ctx.config->tiers) {
      const auto it = charged.find(tier.name);
      if (it == charged.end()) continue;
      if (it->second > tier.limit) {
        out.push_back(error(std::string(id_), ctx.report_name,
                            "tier '" + tier.name + "' over-committed: " +
                                strings::format_bytes(it->second) + " charged against a " +
                                strings::format_bytes(tier.limit) + " limit"));
      }
    }
    return out;
  }
};

class ReportUnknownTierRule final : public NamedRule {
 public:
  ReportUnknownTierRule()
      : NamedRule("report-unknown-tier",
                  "every tier named by the report must be declared in the config") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.report != nullptr && ctx.config != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    std::unordered_map<std::string, std::size_t> unknown;  // tier -> entry count
    for (const auto& entry : ctx.report->entries) {
      if (ctx.config->find(entry.tier) == nullptr) ++unknown[entry.tier];
    }
    for (const auto& [tier, count] : unknown) {
      out.push_back(error(std::string(id_), ctx.report_name,
                          std::to_string(count) + " entries placed on tier '" + tier +
                              "' which is not declared in " + ctx.config_name));
    }
    if (!ctx.report->fallback_tier.empty() &&
        ctx.config->find(ctx.report->fallback_tier) == nullptr) {
      out.push_back(error(std::string(id_), ctx.report_name,
                          "fallback tier '" + ctx.report->fallback_tier +
                              "' is not declared in " + ctx.config_name));
    }
    return out;
  }
};

class ReportFallbackRule final : public NamedRule {
 public:
  ReportFallbackRule()
      : NamedRule("report-fallback",
                  "the report must declare a fallback tier for unplaced sites") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.report != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    if (!ctx.report->fallback_tier.empty()) return {};
    return {warning(std::string(id_), ctx.report_name,
                    "no '# fallback = <tier>' header: sites missing from the report have no "
                    "defined destination at runtime")};
  }
};

class ReportDuplicateEntryRule final : public NamedRule {
 public:
  ReportDuplicateEntryRule()
      : NamedRule("report-duplicate-entry",
                  "a call stack must not be listed twice (ambiguous matching)") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.report != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    std::unordered_map<std::string, const flexmalloc::ReportEntry*> seen;
    for (const auto& entry : ctx.report->entries) {
      const auto [it, inserted] = seen.try_emplace(entry_key(entry), &entry);
      if (inserted) continue;
      if (it->second->tier != entry.tier) {
        out.push_back(error(std::string(id_), ctx.report_name,
                            "call stack listed twice with conflicting tiers '" +
                                it->second->tier + "' and '" + entry.tier +
                                "' (FlexMalloc matching would be ambiguous)"));
      } else {
        out.push_back(warning(std::string(id_), ctx.report_name,
                              "call stack listed twice on tier '" + entry.tier +
                                  "' (redundant entry)"));
      }
    }
    return out;
  }
};

class ReportSiteInTraceRule final : public NamedRule {
 public:
  ReportSiteInTraceRule()
      : NamedRule("report-site-in-trace",
                  "every placed site must exist in the trace it was derived from") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.bundle != nullptr && ctx.report != nullptr && ctx.report->is_bom;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const trace::StackTable& stacks = ctx.bundle->trace.stacks;
    std::unordered_set<bom::CallStack, bom::CallStackHash> known;
    known.reserve(stacks.size());
    for (trace::StackId id = 0; id < stacks.size(); ++id) known.insert(stacks.stack(id));

    for (const auto& entry : ctx.report->entries) {
      const auto* cs = std::get_if<bom::CallStack>(&entry.stack);
      if (cs == nullptr || known.contains(*cs)) continue;
      out.push_back(error(std::string(id_), ctx.report_name,
                          "placed site " + render_stack(*cs, &ctx.bundle->modules) +
                              " does not exist in " + ctx.trace_name +
                              " (dangling placement: the profile and report drifted apart)"));
    }
    return out;
  }
};

class ReportBwClassesRule final : public NamedRule {
 public:
  ReportBwClassesRule()
      : NamedRule("report-bw-classes",
                  "placement moves vs the base (density) placement must stay inside the "
                  "DRAM/PMEM classes of the §VII bandwidth-aware pass") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.analysis != nullptr && ctx.config != nullptr && ctx.report != nullptr &&
           ctx.report->is_bom && ctx.config->tiers.size() >= 2 &&
           ctx.config->validate().empty();  // else config-coefficients' finding
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const auto base = advisor::place_by_density(ctx.analysis->sites, *ctx.config);
    if (!base) {
      return {warning(std::string(id_), ctx.config_name,
                      "cannot recompute the base placement: " + base.error())};
    }

    std::unordered_map<bom::CallStack, const std::string*, bom::CallStackHash> base_tier;
    base_tier.reserve(base->decisions.size());
    for (const auto& d : base->decisions) base_tier.emplace(d.callstack, &d.tier);

    // The bandwidth-aware post-pass (Algorithm 1) only ever exchanges
    // objects between the fastest tier and the fallback tier.
    const std::string& dram_class = ctx.config->tiers.front().name;
    const std::string& pmem_class = ctx.config->fallback_tier().name;
    const auto in_classes = [&](const std::string& tier) {
      return tier == dram_class || tier == pmem_class;
    };

    for (const auto& entry : ctx.report->entries) {
      const auto* cs = std::get_if<bom::CallStack>(&entry.stack);
      if (cs == nullptr) continue;
      const auto it = base_tier.find(*cs);
      if (it == base_tier.end()) continue;  // report-site-in-trace's finding
      const std::string& from = *it->second;
      if (entry.tier == from) continue;
      if (!in_classes(from) || !in_classes(entry.tier)) {
        const std::string site =
            render_stack(*cs, ctx.bundle != nullptr ? &ctx.bundle->modules : nullptr);
        out.push_back(error(std::string(id_), ctx.report_name,
                            "site " + site + " moved '" + from + "' -> '" + entry.tier +
                                "' which leaves the " + dram_class + "/" + pmem_class +
                                " classes the bandwidth-aware pass is allowed to exchange"));
      }
    }
    return out;
  }
};

class AdvisorPolicyModelRule final : public NamedRule {
 public:
  AdvisorPolicyModelRule()
      : NamedRule("advisor-policy-model",
                  "a learned-policy report's '# model = <hash>' stamp must name the "
                  "ranking model it was produced with") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    // Something to check: a stamped report, or a model to check one against.
    return (ctx.report != nullptr && !ctx.report->model_stamp.empty()) ||
           (ctx.report != nullptr && ctx.model != nullptr);
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const std::string& stamp = ctx.report->model_stamp;

    if (!stamp.empty() && !well_formed(stamp)) {
      out.push_back(error(std::string(id_), ctx.report_name,
                          "malformed model stamp '" + stamp +
                              "' (expected 0x<hex>, the content hash ecohmem-advisor "
                              "--policy learned writes)"));
      return out;
    }

    if (ctx.model == nullptr) {
      // Stamp present, nothing to compare against: not a defect, but the
      // stamp is unverified — say so for CI logs.
      out.push_back(info(std::string(id_), ctx.report_name,
                         "model stamp " + stamp +
                             " cannot be verified (re-run with --model <model.ehm>)"));
      return out;
    }

    const std::string expected = learn::model_content_hash(*ctx.model);
    if (stamp.empty()) {
      // A model was supplied but the report carries no stamp: the report
      // came from the greedy policy (or a pre-learned advisor) and does
      // not belong to this model.
      out.push_back(warning(std::string(id_), ctx.report_name,
                            "report has no model stamp; it was not produced by "
                            "--policy learned with " + ctx.model_name +
                                " (expected stamp " + expected + ")"));
    } else if (stamp != expected) {
      out.push_back(error(std::string(id_), ctx.report_name,
                          "model stamp " + stamp + " does not match " + ctx.model_name +
                              " (content hash " + expected +
                              "); the report was produced with a different model"));
    }
    return out;
  }

 private:
  static bool well_formed(const std::string& stamp) {
    if (stamp.size() <= 2 || stamp.size() > 18) return false;
    if (stamp[0] != '0' || stamp[1] != 'x') return false;
    for (std::size_t i = 2; i < stamp.size(); ++i) {
      const char c = stamp[i];
      const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      if (!hex) return false;
    }
    return true;
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> report_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<ConfigCoefficientsRule>());
  rules.push_back(std::make_unique<ReportCapacityRule>());
  rules.push_back(std::make_unique<ReportUnknownTierRule>());
  rules.push_back(std::make_unique<ReportFallbackRule>());
  rules.push_back(std::make_unique<ReportDuplicateEntryRule>());
  rules.push_back(std::make_unique<ReportSiteInTraceRule>());
  rules.push_back(std::make_unique<ReportBwClassesRule>());
  rules.push_back(std::make_unique<AdvisorPolicyModelRule>());
  return rules;
}

}  // namespace ecohmem::check::rules
