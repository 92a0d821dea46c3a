#include "ecohmem/flexmalloc/matcher.hpp"

namespace ecohmem::flexmalloc {

namespace {

/// The innermost `depth` frames of a stack.
bom::CallStack suffix_of(const bom::CallStack& stack, std::size_t depth) {
  bom::CallStack out;
  const std::size_t n = std::min(depth, stack.frames.size());
  out.frames.assign(stack.frames.begin(),
                    stack.frames.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

}  // namespace

Expected<CallStackMatcher> CallStackMatcher::create(const ParsedReport& report,
                                                    const bom::SymbolTable* symbols,
                                                    MatcherOptions options) {
  CallStackMatcher m;
  m.is_bom_ = report.is_bom;
  m.symbols_ = symbols;
  m.options_ = options;

  if (!report.is_bom && symbols == nullptr) {
    return unexpected("human-readable report requires debug information (symbol table)");
  }

  for (const auto& entry : report.entries) {
    if (const auto* cs = std::get_if<bom::CallStack>(&entry.stack)) {
      m.bom_index_.emplace(*cs, entry.tier);
      if (options.min_suffix_depth > 0) {
        const bom::CallStack key = suffix_of(*cs, options.min_suffix_depth);
        const auto [it, inserted] = m.suffix_index_.emplace(key, entry.tier);
        if (!inserted && it->second != entry.tier) it->second.clear();  // ambiguous
      }
    } else {
      const auto& hs = std::get<bom::HumanStack>(entry.stack);
      m.hr_index_.emplace(bom::format_human(hs), entry.tier);
    }
  }
  return m;
}

MatchResult CallStackMatcher::match(const bom::CallStack& captured) {
  ++lookups_;
  if (!options_.match_cache) return match_uncached(captured);

  if (const auto it = cache_.find(captured); it != cache_.end()) {
    // A cache hit still pays one hash-and-compare over the frames.
    frames_compared_ += captured.frames.size();
    if (it->second != nullptr) ++hits_;
    return MatchResult{it->second};
  }
  const MatchResult result = match_uncached(captured);
  cache_.emplace(captured, result.tier);
  return result;
}

MatchResult CallStackMatcher::match_uncached(const bom::CallStack& captured) {
  if (is_bom_) {
    frames_compared_ += captured.frames.size();
    const auto it = bom_index_.find(captured);
    if (it != bom_index_.end()) {
      ++hits_;
      return MatchResult{&it->second};
    }
    if (options_.min_suffix_depth > 0) {
      const auto sfx =
          suffix_index_.find(suffix_of(captured, options_.min_suffix_depth));
      frames_compared_ += options_.min_suffix_depth;
      if (sfx != suffix_index_.end() && !sfx->second.empty()) {
        ++hits_;
        return MatchResult{&sfx->second};
      }
    }
    return {};
  }

  // Human-readable path: symbolize the captured frames, then compare the
  // formatted strings. The cost of symbolization accrues in the symbol
  // table's meter; string comparison cost accrues here.
  const double before = symbols_->cost().estimated_ns();
  auto hr = symbols_->translate(captured);
  symbolization_ns_ += symbols_->cost().estimated_ns() - before;
  if (!hr) return {};  // stripped frame: unmatched, falls back

  const std::string key = bom::format_human(*hr);
  string_bytes_compared_ += key.size();
  const auto it = hr_index_.find(key);
  if (it == hr_index_.end()) return {};
  ++hits_;
  return MatchResult{&it->second};
}

double CallStackMatcher::matching_cost_ns() const {
  // BOM: ~2 ns per frame word compared (hash + equality on integers).
  // HR: symbolization dominates; string comparison adds ~0.25 ns/byte.
  const double bom_cost = 2.0 * static_cast<double>(frames_compared_);
  const double hr_cost = symbolization_ns_ + 0.25 * static_cast<double>(string_bytes_compared_);
  return is_bom_ ? bom_cost : hr_cost;
}

}  // namespace ecohmem::flexmalloc
