#include "ecohmem/memsim/bandwidth_meter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace ecohmem::memsim {
namespace {

TEST(BandwidthMeter, SingleBinAverage) {
  BandwidthMeter m(1, 1000);
  m.add(0, 0, 1000, 500.0);  // 500 B over 1000 ns = 0.5 GB/s
  const auto series = m.series(0);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].gbs, 0.5);
}

TEST(BandwidthMeter, SmearsAcrossBins) {
  BandwidthMeter m(1, 1000);
  m.add(0, 500, 2500, 2000.0);  // uniform over 2 us spanning 3 bins
  const auto series = m.series(0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].gbs, 0.5);   // 500 B in bin 0
  EXPECT_DOUBLE_EQ(series[1].gbs, 1.0);   // 1000 B in bin 1
  EXPECT_DOUBLE_EQ(series[2].gbs, 0.5);   // 500 B in bin 2
}

TEST(BandwidthMeter, TotalBytesConserved) {
  BandwidthMeter m(1, 777);
  m.add(0, 123, 98765, 1.0e6);
  double total = 0.0;
  for (const auto& p : m.series(0)) total += p.gbs * 777.0;
  EXPECT_NEAR(total, 1.0e6, 1.0);
}

TEST(BandwidthMeter, AverageOverWindow) {
  BandwidthMeter m(1, 1000);
  m.add(0, 0, 1000, 1000.0);
  m.add(0, 1000, 2000, 3000.0);
  const WindowAverages avg = m.window_averages(0);
  EXPECT_DOUBLE_EQ(avg.average_gbs(0, 2000), 2.0);
  EXPECT_DOUBLE_EQ(avg.average_gbs(0, 1000), 1.0);
  EXPECT_DOUBLE_EQ(avg.average_gbs(500, 1500), 2.0);  // half of each bin
}

TEST(BandwidthMeter, PeakPicksLargestBin) {
  BandwidthMeter m(1, 1000);
  m.add(0, 0, 1000, 100.0);
  m.add(0, 3000, 4000, 900.0);
  EXPECT_DOUBLE_EQ(m.peak_gbs(0), 0.9);
}

TEST(BandwidthMeter, TiersAreIndependent) {
  BandwidthMeter m(2, 1000);
  m.add(0, 0, 1000, 100.0);
  m.add(1, 0, 1000, 700.0);
  EXPECT_DOUBLE_EQ(m.peak_gbs(0), 0.1);
  EXPECT_DOUBLE_EQ(m.peak_gbs(1), 0.7);
}

TEST(BandwidthMeter, IgnoresInvalidInput) {
  BandwidthMeter m(1, 1000);
  m.add(5, 0, 1000, 100.0);   // bad tier
  m.add(0, 0, 1000, -5.0);    // negative bytes
  EXPECT_TRUE(m.series(0).empty());
  EXPECT_DOUBLE_EQ(m.window_averages(0).average_gbs(0, 0), 0.0);  // empty window
}

TEST(BandwidthMeter, ZeroLengthIntervalTreatedAsPoint) {
  BandwidthMeter m(1, 1000);
  m.add(0, 500, 500, 64.0);
  EXPECT_NEAR(m.peak_gbs(0), 64.0 / 1000.0, 1e-12);
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// The window average as one loop over the bins, each bin's bytes times
/// the share of it the window covers: the operation order that every
/// analysis digest (PinnedAnalysis.*) was recorded with.
double reference_average(const std::vector<BandwidthPoint>& series, Ns bin_ns, Ns t0, Ns t1) {
  if (t1 <= t0) return 0.0;
  double bytes = 0.0;
  const auto first = static_cast<std::size_t>(t0 / bin_ns);
  const auto last = static_cast<std::size_t>((t1 - 1) / bin_ns);
  for (std::size_t b = first; b <= last && b < series.size(); ++b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns;
    const Ns overlap = std::min(bin_start + bin_ns, t1) - std::max(bin_start, t0);
    const double lane = series[b].gbs * static_cast<double>(bin_ns);
    bytes += lane * static_cast<double>(overlap) / static_cast<double>(bin_ns);
  }
  return bytes / static_cast<double>(t1 - t0);
}

TEST(BandwidthMeter, WindowAveragesKeepTheBinByBinSum) {
  // A bin width of 1024 makes the series' gbs * bin_ns round trip the
  // lane's bytes exactly, so the reference sees the meter's own values.
  constexpr Ns kBin = 1024;
  BandwidthMeter m(2, kBin);
  std::uint64_t state = 7;  // LCG: traffic with inexact bin shares
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int k = 0; k < 200; ++k) {
    const Ns t0 = next() % 20'000;
    m.add(0, t0, t0 + 1 + next() % 3000, static_cast<double>(next() % 100'000) / 7.0);
  }
  const auto series = m.series(0);
  const WindowAverages lane0 = m.window_averages(0);
  const WindowAverages empty = m.window_averages(1);
  const WindowAverages past_tiers = m.window_averages(9);
  // Edges, inside one bin, zero length, past the last bin, far past it.
  const std::pair<Ns, Ns> windows[] = {{0, kBin},   {kBin, 3 * kBin}, {100, 200},
                                       {5, 5},      {kBin - 1, kBin + 1}, {21'000, 25'000},
                                       {0, 10'000}, {40'000, 40'001}, {0, 1'000'000}};
  for (const auto& [t0, t1] : windows) {
    EXPECT_EQ(bits(lane0.average_gbs(t0, t1)), bits(reference_average(series, kBin, t0, t1)))
        << t0 << ".." << t1;
    EXPECT_EQ(empty.average_gbs(t0, t1), 0.0);
    EXPECT_EQ(past_tiers.average_gbs(t0, t1), 0.0);
  }
  for (int k = 0; k < 2000; ++k) {
    const Ns t0 = next() % 25'000;
    const Ns t1 = t0 + next() % 6000;
    EXPECT_EQ(bits(lane0.average_gbs(t0, t1)), bits(reference_average(series, kBin, t0, t1)))
        << t0 << ".." << t1;
  }
}

}  // namespace
}  // namespace ecohmem::memsim
