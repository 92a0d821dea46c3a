#pragma once

// Canonical digest of a decoded trace for exact equality checks in the
// trace tests: FNV-1a over the header tables (sample rate, modules,
// stacks, functions) and every event field, doubles by bit pattern.
// It depends on no trace codec, so two traces compare equal exactly when
// their decoded contents do (up to a 64-bit hash collision), whatever
// file they came from.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <variant>

#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::trace {

class TraceDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const Event& e) {
    add(static_cast<std::uint64_t>(e.index()));
    std::visit(
        [this](const auto& ev) {
          using T = std::decay_t<decltype(ev)>;
          add(ev.time);
          if constexpr (std::is_same_v<T, AllocEvent>) {
            add(ev.object_id);
            add(ev.address);
            add(ev.size);
            add(static_cast<std::uint64_t>(ev.stack));
            add(static_cast<std::uint64_t>(ev.kind));
          } else if constexpr (std::is_same_v<T, FreeEvent>) {
            add(ev.object_id);
          } else if constexpr (std::is_same_v<T, SampleEvent>) {
            add(ev.address);
            add(ev.weight);
            add(ev.latency_ns);
            add(static_cast<std::uint64_t>(ev.is_store));
            add(static_cast<std::uint64_t>(ev.function_id));
          } else if constexpr (std::is_same_v<T, MarkerEvent>) {
            add(static_cast<std::uint64_t>(ev.function_id));
            add(static_cast<std::uint64_t>(ev.is_enter));
          } else {
            add(ev.period_ns);
            add(ev.read_gbs);
            add(ev.write_gbs);
          }
        },
        e);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of `t` captured against `modules`.
inline std::uint64_t trace_digest(const Trace& t, const bom::ModuleTable& modules) {
  TraceDigest d;
  d.add(t.sample_rate_hz);
  d.add(static_cast<std::uint64_t>(modules.size()));
  for (const auto& m : modules.modules()) {
    d.add(m.name);
    d.add(static_cast<std::uint64_t>(m.text_size));
    d.add(static_cast<std::uint64_t>(m.debug_info_size));
  }
  d.add(static_cast<std::uint64_t>(t.stacks.size()));
  for (std::uint32_t i = 0; i < t.stacks.size(); ++i) {
    const auto& frames = t.stacks.stack(i).frames;
    d.add(static_cast<std::uint64_t>(frames.size()));
    for (const auto& f : frames) {
      d.add(static_cast<std::uint64_t>(f.module));
      d.add(static_cast<std::uint64_t>(f.offset));
    }
  }
  d.add(static_cast<std::uint64_t>(t.functions.size()));
  for (std::uint32_t i = 0; i < t.functions.size(); ++i) d.add(t.functions.name(i));
  d.add(static_cast<std::uint64_t>(t.events.size()));
  for (const Event& e : t.events) d.add(e);
  return d.value();
}

}  // namespace ecohmem::trace
