#pragma once

/// \file symbols.hpp
/// Synthetic symbol/line tables and the human-readable translation path.
///
/// The pre-BOM workflow translated every frame address to a `file:line`
/// pair using binutils and the binary's DWARF data (§VI). The paper
/// reports two costs: (1) runtime overhead of symbolization + string
/// comparisons at every intercepted allocation, and (2) the DWARF data
/// itself held resident in DRAM (multiplied by the MPI rank count).
/// This module reproduces both: `SymbolTable::translate` performs a real
/// binary search + string materialization, and a `TranslationCost` meter
/// counts the work so benchmarks (`bench_bom_matching`) can report it.

#include <cstdint>
#include <string>
#include <vector>

#include "ecohmem/bom/frame.hpp"
#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::bom {

/// A resolved source location.
struct SourceLocation {
  std::string file;
  std::uint32_t line = 0;

  [[nodiscard]] std::string to_string() const { return file + ":" + std::to_string(line); }
  friend bool operator==(const SourceLocation&, const SourceLocation&) = default;
};

/// Accumulated symbolization work, for the §VIII-D overhead accounting.
struct TranslationCost {
  std::uint64_t frames_translated = 0;
  std::uint64_t table_lookups = 0;      ///< binary-search probes
  std::uint64_t string_bytes_built = 0; ///< bytes of file:line strings materialized

  void reset() { *this = TranslationCost{}; }

  /// Simulated wall-clock cost of this much symbolization work, modeled
  /// after addr2line-style lookups (~1.5 us/frame dominated by DWARF line
  /// program walking, plus per-byte string handling).
  [[nodiscard]] double estimated_ns() const {
    return 1500.0 * static_cast<double>(frames_translated) +
           0.5 * static_cast<double>(string_bytes_built);
  }
};

/// One entry in a module's line table.
struct LineEntry {
  std::uint64_t offset = 0;  ///< start offset within the module text
  std::string file;
  std::uint32_t line = 0;
};

/// Per-module line tables, the stand-in for DWARF .debug_line data.
class SymbolTable {
 public:
  explicit SymbolTable(const ModuleTable* modules);

  /// Registers a line entry; entries are sorted lazily before lookups.
  void add_entry(ModuleId module, LineEntry entry);

  /// Translates a BOM frame to file:line. The containing entry is the one
  /// with the greatest `offset` not above the frame offset.
  [[nodiscard]] Expected<SourceLocation> translate(const Frame& frame) const;

  /// Translates a whole call stack; fails on the first untranslatable
  /// frame (matching the strictness of file:line report matching).
  [[nodiscard]] Expected<std::vector<SourceLocation>> translate(const CallStack& stack) const;

  /// The module table frames are translated against.
  [[nodiscard]] const ModuleTable* modules() const { return modules_; }

  [[nodiscard]] const TranslationCost& cost() const { return cost_; }
  void reset_cost() { cost_.reset(); }

 private:
  void ensure_sorted() const;

  const ModuleTable* modules_;
  mutable std::vector<std::vector<LineEntry>> entries_;  // per module
  mutable bool sorted_ = true;
  mutable TranslationCost cost_;
};

}  // namespace ecohmem::bom
