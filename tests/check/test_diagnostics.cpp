// Tests for the checker's leaf pieces: diagnostic rendering (text/JSON)
// and the strict site-CSV re-parser.

#include <gtest/gtest.h>

#include <sstream>

#include "ecohmem/check/diagnostic.hpp"
#include "ecohmem/check/sites_csv.hpp"

namespace ecohmem::check {
namespace {

TEST(Diagnostics, SeverityHelpers) {
  std::vector<Diagnostic> diags;
  diags.push_back(info("a-rule", "x", "note"));
  diags.push_back(warning("b-rule", "x", "hmm"));
  EXPECT_FALSE(has_errors(diags));
  diags.push_back(error("c-rule", "x", "bad"));
  EXPECT_TRUE(has_errors(diags));
  EXPECT_EQ(count_severity(diags, Severity::kInfo), 1u);
  EXPECT_EQ(count_severity(diags, Severity::kWarning), 1u);
  EXPECT_EQ(count_severity(diags, Severity::kError), 1u);
}

TEST(Diagnostics, TextRendering) {
  std::ostringstream out;
  write_text(out, {error("report-capacity", "r.txt", "tier over-committed")});
  EXPECT_EQ(out.str(), "error: [report-capacity] r.txt: tier over-committed\n");
}

TEST(Diagnostics, JsonRenderingEscapes) {
  std::ostringstream out;
  write_json(out, {warning("a-rule", "p\"q", "line1\nline2")});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos) << json;
  EXPECT_NE(json.find("p\\\"q"), std::string::npos) << json;
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos) << json;
}

constexpr const char* kCsvHeader =
    "callstack,allocs,max_size,peak_live,load_misses,store_misses,"
    "avg_load_latency_ns,exec_bw_gbs,alloc_bw_gbs,exec_sys_bw_gbs,"
    "first_alloc_ns,last_free_ns,mean_lifetime_ns,has_writes\n";

TEST(SitesCsv, ParsesWellFormedRows) {
  const std::string text = std::string(kCsvHeader) +
                           "\"app.x!0x100\",3,4096,8192,120.5,7,150,0.25,1.5,2.5,100,900,266.7,1\n";
  const auto csv = parse_site_csv(text);
  ASSERT_TRUE(csv.has_value()) << csv.error();
  ASSERT_EQ(csv->rows.size(), 1u);
  const SiteCsvRow& row = csv->rows[0];
  EXPECT_EQ(row.line, 2u);
  EXPECT_EQ(row.callstack, "app.x!0x100");
  EXPECT_EQ(row.alloc_count, 3u);
  EXPECT_EQ(row.max_size, 4096u);
  EXPECT_DOUBLE_EQ(row.load_misses, 120.5);
  EXPECT_TRUE(row.has_writes);
}

TEST(SitesCsv, RejectsWrongHeader) {
  EXPECT_FALSE(parse_site_csv("callstack,allocs\n\"a\",1\n").has_value());
}

TEST(SitesCsv, RejectsBadFieldWithLineNumber) {
  // Unparsable counts, and double columns that are not finite or are
  // negative: a nan miss count would pass every `>` cross-check.
  for (const char* row : {
           "\"app.x!0x100\",not_a_number,0,0,0,0,0,0,0,0,0,0,0,0",
           "\"app.x!0x100\",1,0,0,nan,0,0,0,0,0,0,0,0,0",
           "\"app.x!0x100\",1,0,0,0,-inf,0,0,0,0,0,0,0,0",
           "\"app.x!0x100\",1,0,0,0,0,inf,0,0,0,0,0,0,0",
           "\"app.x!0x100\",1,0,0,0,0,0,-0.5,0,0,0,0,0,0",
           "\"app.x!0x100\",1,0,0,0,0,0,0,0,0,0,0,-1,0",
       }) {
    SCOPED_TRACE(row);
    const auto csv = parse_site_csv(std::string(kCsvHeader) + row + "\n");
    ASSERT_FALSE(csv.has_value());
    EXPECT_NE(csv.error().find("line 2"), std::string::npos) << csv.error();
  }
}

TEST(SitesCsv, ParsesCoverageLineStrictly) {
  const std::string row = "\"app.x!0x100\",1,0,0,0,0,0,0,0,0,0,0,0,0\n";
  const auto csv = parse_site_csv(
      "# coverage: events_seen=5 events_declared=8 salvaged=1\n" + std::string(kCsvHeader) + row);
  ASSERT_TRUE(csv.has_value()) << csv.error();
  EXPECT_TRUE(csv->has_coverage);
  EXPECT_EQ(csv->events_seen, 5u);
  EXPECT_EQ(csv->events_declared, 8u);
  EXPECT_TRUE(csv->salvaged);

  // A token without '=' and a misspelt key are errors, not skipped.
  for (const char* line : {"# coverage: events_seen=5 events_declared 8 salvaged=1",
                           "# coverage: event_seen=5 events_declared=8 salvaged=1"}) {
    SCOPED_TRACE(line);
    const auto bad = parse_site_csv(std::string(line) + "\n" + kCsvHeader + row);
    ASSERT_FALSE(bad.has_value());
    EXPECT_NE(bad.error().find("line 1"), std::string::npos) << bad.error();
  }
}

TEST(SitesCsv, RejectsShortRow) {
  const std::string text = std::string(kCsvHeader) + "\"app.x!0x100\",1,2\n";
  EXPECT_FALSE(parse_site_csv(text).has_value());
}

}  // namespace
}  // namespace ecohmem::check
