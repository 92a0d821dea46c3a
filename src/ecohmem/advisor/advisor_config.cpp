#include "ecohmem/advisor/advisor_config.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace ecohmem::advisor {

Expected<AdvisorConfig> AdvisorConfig::parse(const Config& config) {
  AdvisorConfig out;

  if (const ConfigSection* adv = config.first_section("advisor")) {
    auto mode = adv->get_string("footprint", "peak_live");
    if (!mode) return unexpected(mode.error());
    if (*mode == "peak_live") {
      out.footprint_mode = FootprintMode::kPeakLive;
    } else if (*mode == "max_size") {
      out.footprint_mode = FootprintMode::kMaxSize;
    } else {
      return unexpected("[advisor] footprint must be peak_live or max_size, got '" + *mode + "'");
    }
  }

  for (const ConfigSection* mem : config.sections_named("memory")) {
    TierPolicy t;
    auto name = mem->get_string("name");
    auto limit = mem->get_bytes("limit", 0);
    auto lc = mem->get_double("load_coef", 1.0);
    auto sc = mem->get_double("store_coef", 0.0);
    auto order = mem->get_double("order", 0.0);
    auto fb = mem->get_bool("fallback", false);
    if (!name) return unexpected(name.error());
    if (!limit) return unexpected(limit.error());
    if (!lc) return unexpected(lc.error());
    if (!sc) return unexpected(sc.error());
    if (!order) return unexpected(order.error());
    if (!fb) return unexpected(fb.error());
    t.name = *name;
    t.limit = *limit;
    t.load_coef = *lc;
    t.store_coef = *sc;
    t.order = static_cast<int>(*order);
    t.fallback = *fb;
    out.tiers.push_back(std::move(t));
  }

  std::stable_sort(out.tiers.begin(), out.tiers.end(),
                   [](const TierPolicy& a, const TierPolicy& b) { return a.order < b.order; });
  return out;
}

Expected<AdvisorConfig> AdvisorConfig::from_config(const Config& config) {
  auto out = parse(config);
  if (!out) return out;
  if (const auto violations = out->validate(); !violations.empty()) {
    return unexpected(violations.front());
  }
  return out;
}

std::vector<std::string> AdvisorConfig::validate() const {
  std::vector<std::string> out;
  std::set<std::string> names;
  std::size_t fallbacks = 0;
  const auto bad_coef = [](double c) { return !std::isfinite(c) || c < 0.0; };
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierPolicy& t = tiers[i];
    if (t.name.empty()) {
      out.push_back("tier #" + std::to_string(i) + " has no name");
    } else if (!names.insert(t.name).second) {
      out.push_back("duplicate tier name: " + t.name);
    }
    if (t.limit == 0) out.push_back("tier '" + t.name + "' needs a positive limit");
    if (bad_coef(t.load_coef)) {
      out.push_back("tier '" + t.name + "': load_coef " + std::to_string(t.load_coef) +
                    " is not a finite non-negative number");
    }
    if (bad_coef(t.store_coef)) {
      out.push_back("tier '" + t.name + "': store_coef " + std::to_string(t.store_coef) +
                    " is not a finite non-negative number");
    }
    if (t.fallback) ++fallbacks;
  }
  if (tiers.empty()) {
    out.emplace_back("advisor config needs at least one tier");
  } else if (fallbacks != 1) {
    out.push_back("advisor config needs exactly one fallback tier, got " +
                  std::to_string(fallbacks));
  }
  return out;
}

AdvisorConfig AdvisorConfig::dram_pmem(Bytes dram_limit, double store_coef, Bytes pmem_limit) {
  AdvisorConfig cfg;
  TierPolicy dram;
  dram.name = "dram";
  dram.limit = dram_limit;
  dram.load_coef = 1.0;
  dram.store_coef = store_coef;
  dram.order = 0;
  TierPolicy pmem;
  pmem.name = "pmem";
  pmem.limit = pmem_limit;
  pmem.load_coef = 1.0;
  pmem.store_coef = store_coef;
  pmem.order = 1;
  pmem.fallback = true;
  cfg.tiers = {std::move(dram), std::move(pmem)};
  return cfg;
}

const TierPolicy* AdvisorConfig::find(std::string_view name) const {
  for (const auto& t : tiers) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const TierPolicy& AdvisorConfig::fallback_tier() const {
  for (const auto& t : tiers) {
    if (t.fallback) return t;
  }
  return tiers.back();
}

std::string AdvisorConfig::to_config_text() const {
  std::ostringstream out;
  out << "[advisor]\n"
      << "footprint = "
      << (footprint_mode == FootprintMode::kPeakLive ? "peak_live" : "max_size") << "\n";
  for (const auto& t : tiers) {
    out << "\n[memory]\n"
        << "name = " << t.name << "\n"
        << "limit = " << t.limit << "\n"
        << "load_coef = " << t.load_coef << "\n"
        << "store_coef = " << t.store_coef << "\n"
        << "order = " << t.order << "\n";
    if (t.fallback) out << "fallback = true\n";
  }
  return out.str();
}

}  // namespace ecohmem::advisor
