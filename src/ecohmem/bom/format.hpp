#pragma once

/// \file format.hpp
/// Textual call-stack formats of Table I.
///
/// The Advisor report identifies each allocation point by its call stack
/// in one of two formats:
///
///   human-readable (pre-BOM):  `minife.x!src/Vector.hpp:88 > src/driver.hpp:120`
///                               stored here as `file:line` frames joined
///                               by " > "
///   BOM (§VI):                 `minife.x!0x1a2b0 > libmpi.so!0x44c8`
///                               frames are `module!0xoffset`
///
/// A report line appends the assigned memory subsystem: `... @ pmem`.

#include <string>
#include <vector>

#include "ecohmem/bom/frame.hpp"
#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/bom/symbols.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::bom {

/// A call stack in human-readable form (file:line frames).
using HumanStack = std::vector<SourceLocation>;

/// Separator between frames in both formats.
inline constexpr std::string_view kFrameSeparator = " > ";

/// Appends `module!0x1a2b0 > module!0x44c8` to `out`.
void append_bom(std::string& out, const CallStack& stack, const ModuleTable& modules);

/// `append_bom` into a new string.
[[nodiscard]] std::string format_bom(const CallStack& stack, const ModuleTable& modules);

/// `format_bom` for a stack that may not belong to `modules`: a module
/// id outside the table, or any module when `modules` is null, prints
/// as `module#<id>`.
[[nodiscard]] std::string format_bom_lenient(const CallStack& stack, const ModuleTable* modules);

/// Parses the BOM format; module names must exist in `modules`.
[[nodiscard]] Expected<CallStack> parse_bom(std::string_view text, const ModuleTable& modules);

/// Appends `src/Vector.hpp:88 > src/driver.hpp:120` to `out`.
void append_human(std::string& out, const HumanStack& stack);

/// `append_human` into a new string.
[[nodiscard]] std::string format_human(const HumanStack& stack);

/// Parses the human-readable format.
[[nodiscard]] Expected<HumanStack> parse_human(std::string_view text);

/// Heuristic used by report parsers to auto-detect the format of a line:
/// BOM frames contain "!0x".
[[nodiscard]] bool looks_like_bom(std::string_view text);

}  // namespace ecohmem::bom
