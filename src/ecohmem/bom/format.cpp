#include "ecohmem/bom/format.hpp"

#include "ecohmem/common/strings.hpp"

namespace ecohmem::bom {

void append_bom(std::string& out, const CallStack& stack, const ModuleTable& modules) {
  for (std::size_t i = 0; i < stack.frames.size(); ++i) {
    if (i > 0) out += kFrameSeparator;
    const Frame& f = stack.frames[i];
    out += modules.module(f.module).name;
    out += '!';
    strings::append_hex(out, f.offset);
  }
}

std::string format_bom(const CallStack& stack, const ModuleTable& modules) {
  std::string out;
  append_bom(out, stack, modules);
  return out;
}

std::string format_bom_lenient(const CallStack& stack, const ModuleTable* modules) {
  std::string out;
  for (std::size_t i = 0; i < stack.frames.size(); ++i) {
    if (i > 0) out += kFrameSeparator;
    const Frame& f = stack.frames[i];
    if (modules != nullptr && f.module < modules->size()) {
      out += modules->module(f.module).name;
    } else {
      out += "module#" + std::to_string(f.module);
    }
    out += '!';
    strings::append_hex(out, f.offset);
  }
  return out;
}

Expected<CallStack> parse_bom(std::string_view text, const ModuleTable& modules) {
  CallStack cs;
  for (const auto& part : strings::split(text, kFrameSeparator)) {
    const std::size_t bang = part.find('!');
    if (bang == std::string::npos) {
      return unexpected("BOM frame without '!': '" + part + "'");
    }
    const auto id = modules.find(std::string_view(part).substr(0, bang));
    if (!id) return unexpected(id.error());
    const auto offset = strings::parse_hex(std::string_view(part).substr(bang + 1));
    if (!offset) return unexpected("BOM frame offset: " + offset.error());
    cs.frames.push_back(Frame{*id, *offset});
  }
  if (cs.empty()) return unexpected("empty call stack");
  return cs;
}

void append_human(std::string& out, const HumanStack& stack) {
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (i > 0) out += kFrameSeparator;
    out += stack[i].file;
    out += ':';
    strings::append_u64(out, stack[i].line);
  }
}

std::string format_human(const HumanStack& stack) {
  std::string out;
  append_human(out, stack);
  return out;
}

Expected<HumanStack> parse_human(std::string_view text) {
  HumanStack stack;
  for (const auto& part : strings::split(text, kFrameSeparator)) {
    const std::size_t colon = part.rfind(':');
    if (colon == std::string::npos || colon + 1 >= part.size()) {
      return unexpected("human-readable frame without ':line': '" + part + "'");
    }
    const auto line = strings::parse_u64(std::string_view(part).substr(colon + 1));
    if (!line) return unexpected("frame line number: " + line.error());
    stack.push_back(SourceLocation{part.substr(0, colon), static_cast<std::uint32_t>(*line)});
  }
  if (stack.empty()) return unexpected("empty call stack");
  return stack;
}

bool looks_like_bom(std::string_view text) { return text.find("!0x") != std::string_view::npos; }

}  // namespace ecohmem::bom
