/// \file rules_trace.cpp
/// Trace well-formedness rules: the invariants a profile trace must hold
/// before the analyzer's replay (aggregator.cpp) can be trusted. Unlike
/// the analyzer — which hard-fails on the first malformed event — these
/// rules scan the whole stream and report every violation.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecohmem/check/rule.hpp"
#include "ecohmem/common/strings.hpp"
#include "ecohmem/trace/codec.hpp"

namespace ecohmem::check::rules {

namespace {

/// Shared id/description plumbing; trace rules need the bundle.
class TraceRule : public Rule {
 public:
  TraceRule(std::string_view id, std::string_view description)
      : id_(id), description_(description) {}

  [[nodiscard]] std::string_view id() const final { return id_; }
  [[nodiscard]] std::string_view description() const final { return description_; }
  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.bundle != nullptr;
  }

 protected:
  [[nodiscard]] Diagnostic fail(const CheckContext& ctx, std::string message) const {
    return error(std::string(id_), ctx.trace_name, std::move(message));
  }
  [[nodiscard]] Diagnostic warn(const CheckContext& ctx, std::string message) const {
    return warning(std::string(id_), ctx.trace_name, std::move(message));
  }

 private:
  std::string_view id_;
  std::string_view description_;
};

class MonotonicTimeRule final : public TraceRule {
 public:
  MonotonicTimeRule()
      : TraceRule("trace-monotonic-time", "event timestamps must be non-decreasing") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const auto& events = ctx.bundle->trace.events;
    Ns last = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Ns t = trace::event_time(events[i]);
      if (t < last) {
        out.push_back(fail(ctx, "event " + std::to_string(i) + " at t=" + std::to_string(t) +
                                    "ns precedes previous event at t=" + std::to_string(last) +
                                    "ns"));
      }
      last = std::max(last, t);
    }
    return out;
  }
};

class AllocPairingRule final : public TraceRule {
 public:
  AllocPairingRule()
      : TraceRule("trace-alloc-pairing",
                  "every free must pair with a preceding alloc of a live object id") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    enum class State { kLive, kFreed };
    std::unordered_map<std::uint64_t, State> objects;

    for (const auto& event : ctx.bundle->trace.events) {
      if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
        const auto [it, inserted] = objects.try_emplace(a->object_id, State::kLive);
        if (!inserted && it->second == State::kLive) {
          out.push_back(fail(ctx, "object id " + std::to_string(a->object_id) +
                                      " re-allocated at t=" + std::to_string(a->time) +
                                      "ns while still live"));
        }
        it->second = State::kLive;
      } else if (const auto* f = std::get_if<trace::FreeEvent>(&event)) {
        const auto it = objects.find(f->object_id);
        if (it == objects.end()) {
          out.push_back(fail(ctx, "free of unknown object id " + std::to_string(f->object_id) +
                                      " at t=" + std::to_string(f->time) + "ns"));
        } else if (it->second == State::kFreed) {
          out.push_back(fail(ctx, "double free of object id " + std::to_string(f->object_id) +
                                      " at t=" + std::to_string(f->time) + "ns"));
        } else {
          it->second = State::kFreed;
        }
      }
    }
    return out;
  }
};

class OverlappingLiveRule final : public TraceRule {
 public:
  OverlappingLiveRule()
      : TraceRule("trace-overlapping-live",
                  "live allocations must occupy disjoint address ranges") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    struct Interval {
      Bytes size = 0;
      std::uint64_t object_id = 0;
    };
    std::map<std::uint64_t, Interval> live;                      // by start address
    std::unordered_map<std::uint64_t, std::uint64_t> addr_of;    // object id -> address

    for (const auto& event : ctx.bundle->trace.events) {
      if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
        if (a->size > 0) {
          // Check the nearest live neighbours on both sides.
          const auto next = live.lower_bound(a->address);
          if (next != live.end() && a->address + a->size > next->first) {
            out.push_back(fail(ctx, "object id " + std::to_string(a->object_id) + " at [" +
                                        strings::to_hex(a->address) + ", +" +
                                        std::to_string(a->size) + ") overlaps live object id " +
                                        std::to_string(next->second.object_id) + " at " +
                                        strings::to_hex(next->first)));
          }
          if (next != live.begin()) {
            const auto prev = std::prev(next);
            if (prev->first + prev->second.size > a->address) {
              out.push_back(fail(ctx, "object id " + std::to_string(a->object_id) + " at [" +
                                          strings::to_hex(a->address) + ", +" +
                                          std::to_string(a->size) +
                                          ") overlaps live object id " +
                                          std::to_string(prev->second.object_id) + " at " +
                                          strings::to_hex(prev->first)));
            }
          }
        }
        live[a->address] = Interval{a->size, a->object_id};
        addr_of[a->object_id] = a->address;
      } else if (const auto* f = std::get_if<trace::FreeEvent>(&event)) {
        if (const auto it = addr_of.find(f->object_id); it != addr_of.end()) {
          live.erase(it->second);
          addr_of.erase(it);
        }
        // Unknown ids are trace-alloc-pairing's finding, not ours.
      }
    }
    return out;
  }
};

class LeakedObjectsRule final : public TraceRule {
 public:
  LeakedObjectsRule()
      : TraceRule("trace-leaked-objects",
                  "allocations never freed before trace end (reported, not fatal)") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::unordered_map<std::uint64_t, Bytes> live;
    for (const auto& event : ctx.bundle->trace.events) {
      if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
        live[a->object_id] = a->size;
      } else if (const auto* f = std::get_if<trace::FreeEvent>(&event)) {
        live.erase(f->object_id);
      }
    }
    if (live.empty()) return {};
    Bytes bytes = 0;
    for (const auto& [id, size] : live) {
      (void)id;
      bytes += size;
    }
    return {warn(ctx, std::to_string(live.size()) + " objects (" + strings::format_bytes(bytes) +
                          ") still live at trace end; analyzer closes their windows at the "
                          "last event")};
  }
};

class StackIdsRule final : public TraceRule {
 public:
  StackIdsRule()
      : TraceRule("trace-stack-ids",
                  "event stack/function references must resolve in the header tables") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const trace::Trace& t = ctx.bundle->trace;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      if (const auto* a = std::get_if<trace::AllocEvent>(&t.events[i])) {
        if (a->stack == trace::kInvalidStack || a->stack >= t.stacks.size()) {
          out.push_back(fail(ctx, "alloc event " + std::to_string(i) + " (object id " +
                                      std::to_string(a->object_id) +
                                      ") references stack id " + std::to_string(a->stack) +
                                      " outside the stack table (size " +
                                      std::to_string(t.stacks.size()) + ")"));
        }
      } else if (const auto* s = std::get_if<trace::SampleEvent>(&t.events[i])) {
        if (!t.functions.empty() && s->function_id >= t.functions.size()) {
          out.push_back(warn(ctx, "sample event " + std::to_string(i) +
                                      " references function id " +
                                      std::to_string(s->function_id) +
                                      " outside the function table"));
        }
      } else if (const auto* m = std::get_if<trace::MarkerEvent>(&t.events[i])) {
        if (!t.functions.empty() && m->function_id >= t.functions.size()) {
          out.push_back(warn(ctx, "marker event " + std::to_string(i) +
                                      " references function id " +
                                      std::to_string(m->function_id) +
                                      " outside the function table"));
        }
      }
    }
    return out;
  }
};

class EventValuesRule final : public TraceRule {
 public:
  EventValuesRule()
      : TraceRule("trace-event-values",
                  "sample weights/latencies and uncore bandwidths must be finite and "
                  "non-negative") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const auto& events = ctx.bundle->trace.events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (const trace::BadValue bad = trace::first_bad_value(events[i]); bad.field != nullptr) {
        out.push_back(fail(ctx, trace::describe_bad_value(i, bad)));
      }
    }
    return out;
  }
};

class FrameBoundsRule final : public TraceRule {
 public:
  FrameBoundsRule()
      : TraceRule("bom-frame-bounds",
                  "interned call-stack frames must point inside their module's text") {}

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const trace::StackTable& stacks = ctx.bundle->trace.stacks;
    const bom::ModuleTable& modules = ctx.bundle->modules;
    for (trace::StackId id = 0; id < stacks.size(); ++id) {
      for (const bom::Frame& frame : stacks.stack(id).frames) {
        if (frame.module >= modules.size()) {
          out.push_back(fail(ctx, "stack " + std::to_string(id) + " references module id " +
                                      std::to_string(frame.module) +
                                      " outside the module table (size " +
                                      std::to_string(modules.size()) + ")"));
          continue;
        }
        const bom::Module& m = modules.module(frame.module);
        if (m.text_size > 0 && frame.offset >= m.text_size) {
          out.push_back(fail(ctx, "stack " + std::to_string(id) + " frame " + m.name + "!" +
                                      strings::to_hex(frame.offset) +
                                      " lies beyond the module text segment (" +
                                      std::to_string(m.text_size) + " bytes)"));
        }
      }
    }
    return out;
  }
};

/// Unlike the other trace rules this one reads the raw v3 footer index
/// (CheckContext::trace_index), not the decoded bundle: a corrupt index
/// usually prevents the bundle from loading at all. It reports every
/// fault `codec::index_issues` finds, each in the words the strict
/// reader fails with on the first.
class TraceV3IndexRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "trace-v3-index"; }
  [[nodiscard]] std::string_view description() const override {
    return "v3 footer index: increasing in-bounds block offsets, non-decreasing block "
           "timestamps, counts summing to the header total";
  }
  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.trace_index != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    const TraceIndexView& idx = *ctx.trace_index;
    trace::codec::IndexInfo info;
    info.footer_offset = idx.footer_offset;
    info.file_size = idx.file_size;
    info.entries.reserve(idx.entries.size());
    for (const TraceIndexView::Entry& e : idx.entries) {
      info.entries.push_back({e.offset, e.count, e.first_time});
    }
    std::vector<Diagnostic> out;
    for (std::string& issue :
         trace::codec::index_issues(info, idx.events_offset, idx.header_event_count)) {
      out.push_back(error("trace-v3-index", ctx.trace_name, std::move(issue)));
    }
    return out;
  }
};

/// Cross-checks the v3 per-block compression flag against the block
/// bodies: a flagged block must carry a readable compressed column
/// header whose declared event count matches the index entry (the
/// all-or-nothing decode contract salvage relies on), and an unflagged
/// block must not open with the compressed-block magic — 0xEC is never
/// a valid event tag, so that can only be a dropped flag bit.
class TraceBlockCompressionRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "trace-block-compression"; }
  [[nodiscard]] std::string_view description() const override {
    return "v3 compressed blocks: flag bit, body magic and the body's declared event count "
           "must agree with the footer index";
  }
  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.trace_index != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const TraceIndexView& idx = *ctx.trace_index;
    const auto fail = [&](std::string message) {
      out.push_back(error("trace-block-compression", ctx.trace_name, std::move(message)));
    };
    for (std::size_t i = 0; i < idx.entries.size(); ++i) {
      const TraceIndexView::Entry& e = idx.entries[i];
      if (e.compressed) {
        if (!e.body_count_ok) {
          fail("block " + std::to_string(i) + " at offset " + std::to_string(e.offset) +
               " is flagged compressed but its body header is unreadable (" + e.body_error +
               ")");
        } else if (e.body_count != e.count) {
          fail("block " + std::to_string(i) + " at offset " + std::to_string(e.offset) +
               ": index entry declares " + std::to_string(e.count) +
               " events but the compressed body declares " + std::to_string(e.body_count));
        }
      } else if (e.body_looks_compressed) {
        fail("block " + std::to_string(i) + " at offset " + std::to_string(e.offset) +
             " opens with the compressed-block magic but its index entry is not flagged "
             "compressed");
      }
    }
    return out;
  }
};

/// Gates salvage-mode trace loads on how much of the declared data was
/// actually recovered. Only applicable when the lint driver fell back
/// to a salvage read (ctx.salvage set); a strict load is full coverage
/// by construction. Thresholds: coverage below ctx.min_salvage_coverage
/// is an error, anything short of 100% is a warning, and a manifest
/// that fails byte conservation is always an error (it means the
/// salvage accounting itself cannot be trusted).
class TraceSalvageCoverageRule final : public TraceRule {
 public:
  TraceSalvageCoverageRule()
      : TraceRule("trace-salvage-coverage",
                  "a salvaged trace must recover at least the minimum coverage") {}

  [[nodiscard]] bool applicable(const CheckContext& ctx) const override {
    return ctx.salvage != nullptr;
  }

  [[nodiscard]] std::vector<Diagnostic> run(const CheckContext& ctx) const override {
    std::vector<Diagnostic> out;
    const trace::SalvageManifest& m = *ctx.salvage;
    if (!m.bytes_conserved()) {
      out.push_back(fail(ctx, "salvage manifest does not account for every byte (header " +
                                  std::to_string(m.header_bytes) + " + kept " +
                                  std::to_string(m.kept_bytes) + " + dropped " +
                                  std::to_string(m.dropped_bytes) + " + index " +
                                  std::to_string(m.index_bytes) + " != file " +
                                  std::to_string(m.file_bytes) + ")"));
    }
    const auto pct = [](double fraction) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", fraction * 100.0);
      return std::string(buf);
    };
    const double coverage = m.coverage();
    const std::string detail =
        std::to_string(m.events_recovered) + "/" + std::to_string(m.events_declared) +
        " declared events recovered (" + std::to_string(m.blocks_dropped) + " of " +
        std::to_string(m.blocks_declared) + " blocks dropped)";
    if (coverage < ctx.min_salvage_coverage) {
      out.push_back(fail(ctx, "salvage coverage " + pct(coverage) + "% is below the minimum " +
                                  pct(ctx.min_salvage_coverage) + "%: " + detail));
    } else if (coverage < 1.0) {
      out.push_back(warn(ctx, "salvaged trace is incomplete: " + detail));
    }
    if (std::string skew = m.skew_warning(); !skew.empty()) {
      out.push_back(warn(ctx, std::move(skew)));
    }
    return out;
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> trace_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<TraceSalvageCoverageRule>());
  rules.push_back(std::make_unique<TraceV3IndexRule>());
  rules.push_back(std::make_unique<TraceBlockCompressionRule>());
  rules.push_back(std::make_unique<MonotonicTimeRule>());
  rules.push_back(std::make_unique<AllocPairingRule>());
  rules.push_back(std::make_unique<OverlappingLiveRule>());
  rules.push_back(std::make_unique<LeakedObjectsRule>());
  rules.push_back(std::make_unique<StackIdsRule>());
  rules.push_back(std::make_unique<EventValuesRule>());
  rules.push_back(std::make_unique<FrameBoundsRule>());
  return rules;
}

}  // namespace ecohmem::check::rules
