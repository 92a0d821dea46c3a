// EXPERIMENTS.md's measured columns against the committed bench outputs
// (bench/expected/, gated byte for byte by the bench_output.* tests).
// A measured cell that drifts from the output it quotes fails here, so a
// change that moves a paper number must restate it in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ecohmem/common/strings.hpp"

namespace ecohmem {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// The two-decimal numbers in `text`, in order ("1.93 / 1.94" → 1.93, 1.94).
std::vector<std::string> numbers(const std::string& text) {
  static const std::regex number(R"(\d+\.\d+)");
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), number);
       it != std::sregex_iterator(); ++it) {
    out.push_back(it->str());
  }
  return out;
}

/// The body rows of the markdown table under `heading` whose header row
/// starts with `header`, each split into trimmed cells.
std::vector<std::vector<std::string>> table_rows(const std::vector<std::string>& doc,
                                                 const std::string& heading,
                                                 const std::string& header) {
  std::vector<std::vector<std::string>> rows;
  auto it = std::find_if(doc.begin(), doc.end(), [&](const std::string& line) {
    return strings::starts_with(line, heading);
  });
  it = std::find_if(it, doc.end(), [&](const std::string& line) {
    return strings::starts_with(line, header);
  });
  if (it == doc.end()) return rows;
  for (it += 2; it != doc.end() && strings::starts_with(*it, "|"); ++it) {
    std::vector<std::string> cells;
    for (const auto& cell : strings::split(*it, '|')) cells.emplace_back(strings::trim(cell));
    rows.push_back(std::vector<std::string>(cells.begin() + 1, cells.end() - 1));
  }
  return rows;
}

const std::string kSourceDir = ECOHMEM_SOURCE_DIR;

TEST(ExperimentsDoc, Fig6MeasuredColumnsMatchBenchOutput) {
  // bench_fig6_miniapps' PMem-6 block: app, L 4/8/12, LS 4/8/12, ...
  std::map<std::string, std::vector<std::string>> expected;
  bool pmem6 = false;
  for (const auto& line : read_lines(kSourceDir + "/bench/expected/bench_fig6_miniapps.txt")) {
    if (strings::starts_with(line, "---")) pmem6 = line == "--- PMem-6 ---";
    std::istringstream fields(line);
    std::string app;
    fields >> app;
    const auto values = numbers(line);
    if (pmem6 && values.size() >= 6) expected[app] = values;
  }
  ASSERT_EQ(expected.size(), 5u);

  const auto rows = table_rows(read_lines(kSourceDir + "/EXPERIMENTS.md"), "## Fig. 6",
                               "| app | paper (headline) | measured L 4/8/12 |");
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    const std::string app = lower(row[0]);
    SCOPED_TRACE(app);
    ASSERT_TRUE(expected.contains(app));
    const auto& out = expected[app];
    const std::vector<std::string> loads(out.begin(), out.begin() + 3);
    const std::vector<std::string> stores(out.begin() + 3, out.begin() + 6);
    const auto measured_l = numbers(row[2]);
    ASSERT_GE(measured_l.size(), 3u);
    EXPECT_EQ(std::vector<std::string>(measured_l.begin(), measured_l.begin() + 3), loads);
    // "same" means the Loads+stores cells equal the Loads ones.
    const auto measured_ls =
        strings::starts_with(row[3], "same") ? measured_l : numbers(row[3]);
    ASSERT_GE(measured_ls.size(), 3u);
    EXPECT_EQ(std::vector<std::string>(measured_ls.begin(), measured_ls.begin() + 3), stores);
  }
}

TEST(ExperimentsDoc, Table8MeasuredColumnMatchesBenchOutput) {
  // bench_table8_fullapps: "<app> <algorithm> (<N>GB) <speedup> <paper>".
  std::map<std::pair<std::string, std::string>, std::string> expected;
  static const std::regex row_re(R"(^(\w+)\s+(main|bandwidth-aware) \(\d+GB\)\s+(\d+\.\d+))");
  for (const auto& line : read_lines(kSourceDir + "/bench/expected/bench_table8_fullapps.txt")) {
    std::smatch m;
    if (std::regex_search(line, m, row_re)) expected[{m[1].str(), m[2].str()}] = m[3].str();
  }
  ASSERT_EQ(expected.size(), 6u);

  // A row names one algorithm, or "main → bandwidth-aware" with two values.
  std::size_t checked = 0;
  for (const auto& row : table_rows(read_lines(kSourceDir + "/EXPERIMENTS.md"),
                                    "## Table VIII", "| row | paper | measured |")) {
    ASSERT_EQ(row.size(), 3u);
    SCOPED_TRACE(row[0]);
    const auto comma = row[0].find(", ");
    ASSERT_NE(comma, std::string::npos);
    const std::string app = lower(row[0].substr(0, comma));
    std::vector<std::string> algorithms;
    for (const auto& part : strings::split(row[0].substr(comma + 2), "→")) {
      std::istringstream words{std::string(part)};
      std::string algorithm;
      words >> algorithm;
      algorithms.push_back(algorithm);
    }
    const auto measured = numbers(row[2]);
    ASSERT_EQ(measured.size(), algorithms.size());
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      const auto it = expected.find({app, algorithms[i]});
      ASSERT_NE(it, expected.end()) << algorithms[i];
      EXPECT_EQ(measured[i], it->second) << algorithms[i];
      ++checked;
    }
  }
  EXPECT_EQ(checked, expected.size());
}

}  // namespace
}  // namespace ecohmem
