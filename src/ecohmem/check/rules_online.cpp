/// \file rules_online.cpp
/// Online placement policy rules: the `[online]` INI an operator hands
/// to `ecohmem-run --online` must load under the strict loader
/// (online/policy_config.hpp). The rules hold no checks of their own:
/// each runs the loader's collecting pass, online::check_policy(), and
/// reports the issues of its key with the loader's message, so lint and
/// `ecohmem-run` agree by construction and one bad key does not hide the
/// next.

#include <string>
#include <utility>
#include <vector>

#include "ecohmem/check/rule.hpp"
#include "ecohmem/online/policy_config.hpp"

namespace ecohmem::check::rules {

namespace {

/// Rule id of each policy key. An issue whose key is not listed names an
/// unknown key, which online-keys reports.
constexpr std::pair<std::string_view, std::string_view> kKeyRules[] = {
    {"sample_rate", "online-sample-rate"},
    {"ewma_alpha", "online-ewma-alpha"},
    {"window", "online-window"},
    {"hysteresis", "online-hysteresis"},
    {"min_density", "online-min-density"},
    {"max_moves_per_step", "online-max-moves"},
    {"max_bytes_per_step", "online-max-bytes"},
    {"bandwidth_fraction", "online-bandwidth-fraction"},
    {"seed", "online-seed"},
    {"chunk_bytes", "online-chunk-bytes"},
    {"huge_object_bytes", "online-huge-object-bytes"},
};

bool listed(std::string_view key) {
  for (const auto& [listed_key, id] : kKeyRules) {
    if (key == listed_key) return true;
  }
  return false;
}

/// Reports the loader's issues for one key; an empty key means every
/// key the loader does not recognize.
class PolicyKeyRule final : public Rule {
 public:
  PolicyKeyRule(std::string_view id, std::string_view key)
      : id_(id),
        key_(key),
        description_(key.empty()
                         ? "every [online] key must be one the policy loader recognizes"
                         : "[online] " + std::string(key) +
                               " must parse and pass the policy loader's check") {}

  [[nodiscard]] std::string_view id() const override { return id_; }
  [[nodiscard]] std::string_view description() const override { return description_; }
  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.online != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    for (auto& issue : online::check_policy(*ctx.online).issues) {
      if (key_.empty() ? !listed(issue.key) : issue.key == key_) {
        out.push_back(error(std::string(id_), ctx.online_name, std::move(issue.message)));
      }
    }
    return out;
  }

 private:
  std::string_view id_;
  std::string_view key_;
  std::string description_;
};

}  // namespace

std::vector<std::unique_ptr<Rule>> online_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<PolicyKeyRule>("online-keys", ""));
  for (const auto& [key, id] : kKeyRules) rules.push_back(std::make_unique<PolicyKeyRule>(id, key));
  return rules;
}

}  // namespace ecohmem::check::rules
