#include "ecohmem/trace/events.hpp"

#include <cstdio>

namespace ecohmem::trace {

Ns event_time(const Event& e) {
  return std::visit([](const auto& ev) { return ev.time; }, e);
}

std::string describe_bad_value(std::uint64_t index, const BadValue& bad) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "event %llu: %s %g is not a finite non-negative number",
                static_cast<unsigned long long>(index), bad.field, bad.value);
  return buf;
}

StackId StackTable::intern(const bom::CallStack& stack) {
  const auto it = index_.find(stack);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<StackId>(stacks_.size());
  stacks_.push_back(stack);
  index_.emplace(stack, id);
  return id;
}

std::uint32_t FunctionTable::intern(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

}  // namespace ecohmem::trace
