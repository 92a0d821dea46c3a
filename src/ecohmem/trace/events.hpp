#pragma once

/// \file events.hpp
/// Trace events: the Extrae-equivalent record stream.
///
/// The profiler emits, in simulated-time order:
///   - allocation / reallocation / deallocation events from the
///     instrumented heap routines (size, call-stack id, returned address,
///     timestamp) — §IV-A,
///   - PEBS-like samples: LLC load-miss samples with a data linear
///     address (`MEM_LOAD_RETIRED.L3_MISS` analogue, including access
///     latency, which the paper uses in §VIII-B) and store samples
///     (`MEM_INST_RETIRED.ALL_STORES` analogue) — §V,
///   - phase/function markers so the analyzer can attribute samples to
///     functions (Table VII) and compute bandwidth regions.
///
/// Call stacks are interned once in the trace header (`StackTable`), in
/// BOM form; events reference them by id. This mirrors Extrae's frame
/// translation done at trace time, once per allocation site.

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "ecohmem/bom/frame.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::trace {

/// Interned call-stack id within one trace.
using StackId = std::uint32_t;

inline constexpr StackId kInvalidStack = 0xffffffffu;

/// Heap-routine kinds that the interposer instruments.
enum class AllocKind : std::uint8_t { kMalloc, kCalloc, kRealloc, kPosixMemalign, kNew };

struct AllocEvent {
  Ns time = 0;
  std::uint64_t object_id = 0;  ///< unique per live allocation
  std::uint64_t address = 0;    ///< returned pointer (simulated VA)
  Bytes size = 0;
  StackId stack = kInvalidStack;
  AllocKind kind = AllocKind::kMalloc;
};

struct FreeEvent {
  Ns time = 0;
  std::uint64_t object_id = 0;
};

/// One PEBS sample. `weight` is the number of real events one sample
/// represents (the inverse sampling ratio).
struct SampleEvent {
  Ns time = 0;
  std::uint64_t address = 0;  ///< data linear address
  double weight = 1.0;
  double latency_ns = 0.0;    ///< measured access latency (loads only)
  bool is_store = false;
  std::uint32_t function_id = 0;  ///< function performing the access
};

/// Enter/leave marker for a named function/phase.
struct MarkerEvent {
  Ns time = 0;
  std::uint32_t function_id = 0;
  bool is_enter = true;
};

/// Periodic uncore (IMC) bandwidth reading. Unlike PEBS load samples,
/// these see *all* memory traffic including prefetch fills — the signal
/// behind the bandwidth timelines of Figs. 3/7 and the bandwidth-region
/// classification of the bandwidth-aware algorithm. `period_ns` is the
/// interval the reading covers (ending at `time`).
struct UncoreBwEvent {
  Ns time = 0;
  Ns period_ns = 0;
  double read_gbs = 0.0;
  double write_gbs = 0.0;
};

using Event = std::variant<AllocEvent, FreeEvent, SampleEvent, MarkerEvent, UncoreBwEvent>;

/// Timestamp of any event.
[[nodiscard]] Ns event_time(const Event& e);

/// A sample or uncore value the analyzer cannot fold; `field` is null
/// when there is none.
struct BadValue {
  const char* field = nullptr;  ///< "sample weight", "uncore read_gbs", ...
  double value = 0.0;
};

/// False for NaN, infinities and negative numbers.
[[nodiscard]] inline bool finite_non_negative(double v) {
  return v >= 0.0 && v <= std::numeric_limits<double>::max();
}

/// The one value check of trace events: a sample's `weight` and
/// `latency_ns` and an uncore reading's `read_gbs` and `write_gbs` must
/// be finite and non-negative, or they fold into NaN or negative site
/// weights and bandwidths. Returns the first bad value of the event.
/// Inline and allocation-free: the analyzer runs it on every event it
/// folds. Allocations, frees and markers carry no such value.
[[nodiscard]] inline BadValue first_bad_value(const SampleEvent& s) {
  if (!finite_non_negative(s.weight)) return {"sample weight", s.weight};
  if (!finite_non_negative(s.latency_ns)) return {"sample latency_ns", s.latency_ns};
  return {};
}
[[nodiscard]] inline BadValue first_bad_value(const UncoreBwEvent& u) {
  if (!finite_non_negative(u.read_gbs)) return {"uncore read_gbs", u.read_gbs};
  if (!finite_non_negative(u.write_gbs)) return {"uncore write_gbs", u.write_gbs};
  return {};
}
[[nodiscard]] inline BadValue first_bad_value(const Event& e) {
  if (const auto* s = std::get_if<SampleEvent>(&e)) return first_bad_value(*s);
  if (const auto* u = std::get_if<UncoreBwEvent>(&e)) return first_bad_value(*u);
  return {};
}

/// "event <index>: sample weight nan is not a finite non-negative
/// number": how the analyzer fails on the first bad value and how
/// `trace-event-values` lists every one.
[[nodiscard]] std::string describe_bad_value(std::uint64_t index, const BadValue& bad);

/// Interned call stacks (BOM form) for one trace.
class StackTable {
 public:
  /// Returns the id of `stack`, interning it on first sight.
  StackId intern(const bom::CallStack& stack);

  [[nodiscard]] const bom::CallStack& stack(StackId id) const { return stacks_.at(id); }
  [[nodiscard]] std::size_t size() const { return stacks_.size(); }

 private:
  std::vector<bom::CallStack> stacks_;
  std::unordered_map<bom::CallStack, StackId, bom::CallStackHash> index_;
};

/// Interned function names (for markers and sample attribution).
class FunctionTable {
 public:
  std::uint32_t intern(const std::string& name);
  [[nodiscard]] const std::string& name(std::uint32_t id) const { return names_.at(id); }
  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] bool empty() const { return names_.empty(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

/// An in-memory trace: header tables + the time-ordered event stream.
struct Trace {
  StackTable stacks;
  FunctionTable functions;
  std::vector<Event> events;

  /// Sampling period actually used, needed to scale sample weights back
  /// to absolute counts during analysis.
  double sample_rate_hz = 0.0;

  [[nodiscard]] std::size_t event_count() const { return events.size(); }
};

}  // namespace ecohmem::trace
