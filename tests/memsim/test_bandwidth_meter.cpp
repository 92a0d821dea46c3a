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
  EXPECT_EQ(m.bin_count(0), 3u);
  EXPECT_EQ(m.bin_count(1), 0u);  // past the meter's tiers
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

TEST(BandwidthMeter, GrowingWindowsContinueFromTheirPrefixes) {
  // Open windows [t0, now) grow as time advances; each carries its
  // prefix across calls while new traffic lands only at or past the
  // stable end of the previous call. Every step must give the bits of
  // the fresh average, and a prefix reset to empty starts over.
  constexpr Ns kBin = 1000;
  BandwidthMeter m(1, kBin);
  std::uint64_t state = 11;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  const auto traffic = [&](Ns from) {
    for (int k = 0; k < 20; ++k) {
      const Ns t0 = from + next() % 3000;
      m.add(0, t0, t0 + 1 + next() % 2500, static_cast<double>(next() % 100'000) / 7.0);
    }
  };
  traffic(0);
  struct Open {
    Ns t0 = 0;
    WindowAverages::Prefix prefix;
  };
  std::vector<Open> open;
  for (int k = 0; k < 64; ++k) open.push_back(Open{static_cast<Ns>(next() % 20'000), {}});
  Ns now = 20'000;
  std::size_t stable = 0;
  for (int step = 0; step < 80; ++step) {
    traffic(static_cast<Ns>(stable) * kBin);
    now += next() % 1500;
    // Windows opened just now stay inside their first bin for a while.
    if (step % 10 == 0) open.push_back(Open{now - next() % 3, {}});
    if (step == 40) open.front().prefix = {};
    const std::size_t reach = now > 2000 ? static_cast<std::size_t>((now - 2000) / kBin) : 0;
    stable = std::max(stable, std::min(reach, m.bin_count(0)));
    const WindowAverages averages = m.window_averages(0);
    for (Open& w : open) {
      const Ns t1 = std::max(now, w.t0 + 1);
      EXPECT_EQ(bits(averages.average_gbs(w.t0, t1, w.prefix, stable)),
                bits(averages.average_gbs(w.t0, t1)))
          << "step " << step << " window " << w.t0 << ".." << t1;
    }
  }
  // The prefixes did carry: most windows reached past their first bin.
  EXPECT_GT(std::count_if(open.begin(), open.end(),
                          [](const Open& w) { return w.prefix.end > 0; }),
            32);

  // A window still inside its first bin carries nothing, even below the
  // stable end: its first share depends on where it ends.
  const WindowAverages averages = m.window_averages(0);
  WindowAverages::Prefix short_first;
  EXPECT_EQ(bits(averages.average_gbs(1500, 1700, short_first, stable)),
            bits(averages.average_gbs(1500, 1700)));
  EXPECT_EQ(bits(averages.average_gbs(1500, 5300, short_first, stable)),
            bits(averages.average_gbs(1500, 5300)));
}

/// `add` as one loop over the bins, each bin getting `bytes` times its
/// overlap over the span: the per-bin shares every timeline digest
/// (PinnedOutputs.BandwidthTimelines) was recorded with.
void reference_add(std::vector<double>& lane, Ns bin_ns, Ns t0, Ns t1, double bytes) {
  if (bytes <= 0.0) return;
  if (t1 <= t0) t1 = t0 + 1;
  const auto first = static_cast<std::size_t>(t0 / bin_ns);
  const auto last = static_cast<std::size_t>((t1 - 1) / bin_ns);
  if (last >= lane.size()) lane.resize(last + 1, 0.0);
  const auto span = static_cast<double>(t1 - t0);
  for (std::size_t b = first; b <= last; ++b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns;
    const Ns overlap = std::min(bin_start + bin_ns, t1) - std::max(bin_start, t0);
    lane[b] += bytes * (static_cast<double>(overlap) / span);
  }
}

TEST(BandwidthMeter, AddKeepsThePerBinShares) {
  // 1024 is a power of two, so each gbs is the lane's bytes scaled
  // exactly; 777 checks an inexact bin width through the same division.
  for (const Ns bin : {Ns{1024}, Ns{777}}) {
    BandwidthMeter m(2, bin);
    std::vector<double> ref[2];
    std::uint64_t state = 11;  // LCG: seeded (tier, t0, t1, bytes)
    const auto next = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    };
    const auto add = [&](std::size_t tier, Ns t0, Ns t1, double bytes) {
      m.add(tier, t0, t1, bytes);
      reference_add(ref[tier], bin, t0, t1, bytes);
    };
    // One bin, two bins, ends on bin edges, t1 <= t0, thousands of bins.
    add(0, 3, 9, 100.0);
    add(0, bin - 5, bin + 7, 1234.5);
    add(1, bin, 3 * bin, 999.0);
    add(1, 2 * bin, 2 * bin + bin / 2, 7.25);
    add(0, 5 * bin + 3, 5 * bin + 3, 64.0);
    add(1, 9 * bin, 4 * bin, 33.0);
    add(0, 17, 4321 * bin + 29, 1.0e9 / 3.0);
    add(1, 0, 6000 * bin, 2.0e8 / 7.0);
    for (int k = 0; k < 3000; ++k) {
      const std::size_t tier = next() % 2;
      const Ns t0 = next() % (8000 * bin);
      // Within a bin, up to two bins, up to 3000 bins, or ending on an edge.
      const std::uint64_t kind = next() % 4;
      const Ns len = kind == 0   ? next() % bin
                     : kind == 1 ? next() % (2 * bin)
                     : kind == 2 ? next() % (3000 * bin)
                                 : (next() % 50 + 1) * bin - t0 % bin;
      add(tier, t0, t0 + len, static_cast<double>(next() % 10'000'000) / 13.0);
    }
    for (std::size_t tier = 0; tier < 2; ++tier) {
      const auto series = m.series(tier);
      ASSERT_EQ(series.size(), ref[tier].size()) << "bin " << bin << " tier " << tier;
      for (std::size_t b = 0; b < series.size(); ++b) {
        ASSERT_EQ(series[b].time, static_cast<Ns>(b) * bin);
        ASSERT_EQ(bits(series[b].gbs), bits(ref[tier][b] / static_cast<double>(bin)))
            << "bin " << bin << " tier " << tier << " bin index " << b;
      }
    }
  }
}

}  // namespace
}  // namespace ecohmem::memsim
