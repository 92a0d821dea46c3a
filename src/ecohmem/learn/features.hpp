#pragma once

/// \file features.hpp
/// Deterministic feature extraction for the learning-to-rank advisor
/// policy (docs/learned.md).
///
/// One row per analyzed allocation site, in site order. Every column is
/// a pure function of the `analyzer::AnalysisResult` — no randomness, no
/// clocks, no iteration over unordered containers — so the matrix is
/// bitwise identical across runs.
///
/// The column set is versioned: `feature_schema_hash()` digests the
/// schema version and every column name, and model files pin that hash
/// so a model trained against one schema can never silently score
/// another (model.hpp).

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"

namespace ecohmem::learn {

/// Number of feature columns (kFeatureSchemaVersion pins their meaning).
inline constexpr std::size_t kFeatureCount = 14;

/// Bumped whenever a column is added, removed, reordered or redefined.
inline constexpr std::uint32_t kFeatureSchemaVersion = 1;

/// Column names, in column order (docs/learned.md documents each).
[[nodiscard]] const std::array<std::string_view, kFeatureCount>& feature_names();

/// FNV-1a digest of the schema version and the column names. Stored in
/// every model file; loaders reject a model whose hash differs.
[[nodiscard]] std::uint64_t feature_schema_hash();

/// One feature row (column order = `feature_names()` order).
using FeatureRow = std::array<double, kFeatureCount>;

/// The extracted matrix. Rows align 1:1 with `analysis.sites` (row i
/// describes `sites[i]`); `stacks` repeats the site stack ids for
/// convenience when rows are shuffled into training pairs.
struct FeatureMatrix {
  std::vector<trace::StackId> stacks;
  std::vector<FeatureRow> rows;

  [[nodiscard]] std::size_t size() const { return rows.size(); }
};

/// Extracts the documented feature matrix from an analysis. Per-trace
/// normalizations (miss share, footprint share, bandwidth share, trace
/// duration) are computed over the whole `analysis`, so rows from
/// different traces are comparable after extraction.
[[nodiscard]] FeatureMatrix extract_features(const analyzer::AnalysisResult& analysis);

}  // namespace ecohmem::learn
