#pragma once

/// \file report.hpp
/// Advisor report serialization — the file handed to FlexMalloc.
///
/// One line per allocation site (Table I):
///
///   BOM format:            minife.x!0x1a2b0 > libmpi.so!0x44c8 @ dram # size=1989
///   human-readable format: src/Vector.hpp:88 > src/driver.cpp:120 @ dram # size=1989
///
/// plus header comments carrying the format and the fallback tier. The
/// BOM writer needs only the module table; the human-readable writer
/// symbolizes every frame (requiring debug info — the cost §VIII-D
/// measures).

#include <string>

#include "ecohmem/advisor/placement.hpp"
#include "ecohmem/bom/format.hpp"
#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/bom/symbols.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::advisor {

enum class ReportFormat { kBom, kHumanReadable };

[[nodiscard]] std::string to_string(ReportFormat fmt);

/// Appends the placement's report to `out`. For kHumanReadable,
/// `symbols` must be able to translate every frame (fails otherwise,
/// like a stripped binary would; `out` then holds a partial report).
[[nodiscard]] Status write_report(std::string& out, const Placement& placement,
                                  ReportFormat format, const bom::ModuleTable& modules,
                                  const bom::SymbolTable* symbols = nullptr);

[[nodiscard]] Expected<std::string> report_to_string(const Placement& placement,
                                                     ReportFormat format,
                                                     const bom::ModuleTable& modules,
                                                     const bom::SymbolTable* symbols = nullptr);

[[nodiscard]] Status save_report(const std::string& path, const Placement& placement,
                                 ReportFormat format, const bom::ModuleTable& modules,
                                 const bom::SymbolTable* symbols = nullptr);

}  // namespace ecohmem::advisor
