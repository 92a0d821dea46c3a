// Feature extraction determinism (docs/learned.md): the matrix must be
// bitwise identical across repeated extractions and across analyzer
// thread counts, and the schema hash must pin the column set so model
// files can reject a schema drift.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/learn/features.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"

namespace ecohmem::learn {
namespace {

void expect_bits(double a, double b, const char* what) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, 8);
  std::memcpy(&ub, &b, 8);
  EXPECT_EQ(ua, ub) << what << ": " << a << " vs " << b;
}

void expect_identical(const FeatureMatrix& a, const FeatureMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.stacks, b.stacks);
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    for (std::size_t c = 0; c < kFeatureCount; ++c) {
      SCOPED_TRACE("row " + std::to_string(r) + " col " + std::to_string(c));
      expect_bits(a.rows[r][c], b.rows[r][c], std::string(feature_names()[c]).c_str());
    }
  }
}

/// Profiles `app` through the execution engine (the ecohmem-profile path).
trace::Trace capture(const std::string& app) {
  apps::AppOptions opt;
  opt.iterations = 2;
  const runtime::Workload workload = apps::make_app(app, opt);
  const auto sys = memsim::paper_system(6);
  EXPECT_TRUE(sys.has_value());

  profiler::Profiler prof;
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&*sys, eopt);
  runtime::FixedTierMode mode(&*sys, 1);
  const auto metrics = engine.run(workload, mode);
  EXPECT_TRUE(metrics.has_value());
  return prof.take_trace();
}

TEST(FeatureSchema, NamesAreUniqueAndMatchCount) {
  const auto& names = feature_names();
  ASSERT_EQ(names.size(), kFeatureCount);
  std::set<std::string_view> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), kFeatureCount);
  for (const auto name : names) EXPECT_FALSE(name.empty());
}

TEST(FeatureSchema, HashIsPinned) {
  // Pins schema version 1's column set. A legitimate schema change must
  // bump kFeatureSchemaVersion and update this constant — never silently
  // re-hash, because every saved model embeds this value.
  EXPECT_EQ(feature_schema_hash(), 0x3cecba6e1c0092abull);
  EXPECT_EQ(feature_schema_hash(), feature_schema_hash());
}

TEST(FeatureExtraction, RowsAlignWithSitesAndAreFinite) {
  const trace::Trace t = capture("minife");
  const auto analysis = analyzer::analyze(t, {});
  ASSERT_TRUE(analysis.has_value()) << analysis.error();

  const FeatureMatrix m = extract_features(*analysis);
  ASSERT_EQ(m.size(), analysis->sites.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.stacks[i], analysis->sites[i].stack) << "row " << i;
    for (std::size_t c = 0; c < kFeatureCount; ++c) {
      EXPECT_TRUE(std::isfinite(m.rows[i][c]))
          << "row " << i << " " << feature_names()[c];
    }
  }
}

TEST(FeatureExtraction, BitwiseDeterministicAcrossRuns) {
  const trace::Trace t = capture("minife");
  const auto analysis = analyzer::analyze(t, {});
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  expect_identical(extract_features(*analysis), extract_features(*analysis));

  // A freshly captured trace of the same app must extract identically
  // too (the whole pipeline is deterministic, not just the extractor).
  const trace::Trace t2 = capture("minife");
  const auto analysis2 = analyzer::analyze(t2, {});
  ASSERT_TRUE(analysis2.has_value()) << analysis2.error();
  expect_identical(extract_features(*analysis), extract_features(*analysis2));
}

}  // namespace
}  // namespace ecohmem::learn
