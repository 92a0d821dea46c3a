#include "ecohmem/online/policy_config.hpp"

#include <cmath>

namespace ecohmem::online {

namespace {

constexpr const char* kKeys[] = {
    "sample_rate",       "ewma_alpha",        "window",
    "hysteresis",        "min_density",       "max_moves_per_step",
    "max_bytes_per_step", "bandwidth_fraction", "seed",
    "chunk_bytes",       "huge_object_bytes",
    nullptr,
};

bool known_key(std::string_view key) {
  for (const char* const* k = kKeys; *k != nullptr; ++k) {
    if (key == *k) return true;
  }
  return false;
}

}  // namespace

const char* const* policy_keys() { return kKeys; }

std::vector<PolicyIssue> OnlinePolicyConfig::violations() const {
  std::vector<PolicyIssue> out;
  const auto must_be = [&out](const char* key, const std::string& rule) {
    out.push_back({key, "online policy: " + std::string(key) + " must be " + rule});
  };
  const auto in_unit = [&must_be](const char* key, double v) {
    if (!std::isfinite(v) || v <= 0.0 || v > 1.0) {
      must_be(key, "in (0, 1], got " + std::to_string(v));
    }
  };
  const auto non_negative = [&must_be](const char* key, double v) {
    if (!std::isfinite(v) || v < 0.0) must_be(key, ">= 0, got " + std::to_string(v));
  };
  in_unit("sample_rate", sample_rate);
  in_unit("ewma_alpha", ewma_alpha);
  if (window == 0) must_be("window", "> 0");
  non_negative("hysteresis", hysteresis);
  non_negative("min_density", min_density);
  if (max_moves_per_step == 0) must_be("max_moves_per_step", ">= 1");
  in_unit("bandwidth_fraction", bandwidth_fraction);
  if (chunk_bytes == 0 || (chunk_bytes & (chunk_bytes - 1)) != 0) {
    must_be("chunk_bytes", "a power of two, got " + std::to_string(chunk_bytes));
  }
  if (huge_object_bytes != 0 && huge_object_bytes < chunk_bytes) {
    must_be("huge_object_bytes", "0 (disabled) or >= chunk_bytes");
  }
  return out;
}

Status OnlinePolicyConfig::validate() const {
  const auto issues = violations();
  if (!issues.empty()) return unexpected(issues.front().message);
  return {};
}

PolicyCheck check_policy(const Config& config) {
  // `[online]` section when present, else the unnamed global section —
  // a bare `key = value` policy file is accepted.
  const ConfigSection* section = config.first_section(kPolicySection);
  if (section == nullptr) section = &config.global();

  PolicyCheck out;
  for (const auto& [key, value] : section->entries()) {
    (void)value;
    if (!known_key(key)) {
      out.issues.push_back({key, "online policy: unknown key '" + key + "' (see docs/online.md)"});
    }
  }

  OnlinePolicyConfig& c = out.config;
  const auto take = [&out, section](const char* key, auto& field, auto getter) {
    const auto parsed = (section->*getter)(key, field);
    if (parsed) {
      field = *parsed;
    } else {
      out.issues.push_back({key, parsed.error()});
    }
  };
  take("sample_rate", c.sample_rate, &ConfigSection::get_double);
  take("ewma_alpha", c.ewma_alpha, &ConfigSection::get_double);
  take("window", c.window, &ConfigSection::get_u64);
  take("hysteresis", c.hysteresis, &ConfigSection::get_double);
  take("min_density", c.min_density, &ConfigSection::get_double);
  take("max_moves_per_step", c.max_moves_per_step, &ConfigSection::get_u64);
  take("max_bytes_per_step", c.max_bytes_per_step, &ConfigSection::get_bytes);
  take("bandwidth_fraction", c.bandwidth_fraction, &ConfigSection::get_double);
  take("seed", c.seed, &ConfigSection::get_u64);
  take("chunk_bytes", c.chunk_bytes, &ConfigSection::get_bytes);
  take("huge_object_bytes", c.huge_object_bytes, &ConfigSection::get_bytes);

  for (auto& issue : c.violations()) out.issues.push_back(std::move(issue));
  return out;
}

Expected<OnlinePolicyConfig> OnlinePolicyConfig::from_config(const Config& config) {
  auto checked = check_policy(config);
  if (!checked.issues.empty()) return unexpected(std::move(checked.issues.front().message));
  return checked.config;
}

Expected<OnlinePolicyConfig> OnlinePolicyConfig::load(const std::string& path) {
  auto config = Config::load(path);
  if (!config) return unexpected(config.error());
  return from_config(*config);
}

}  // namespace ecohmem::online
