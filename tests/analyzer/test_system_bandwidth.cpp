// SystemBandwidthFold: the system bandwidth timeline rule shared by the
// analyzer's fold and ecohmem-timeline --trace.

#include <gtest/gtest.h>

#include <limits>

#include "ecohmem/analyzer/aggregator.hpp"

namespace ecohmem::analyzer {
namespace {

using trace::SampleEvent;
using trace::UncoreBwEvent;

TEST(SystemBandwidthFold, UncoreReadingsReplaceTheSampleMeter) {
  SystemBandwidthFold fold(1000);
  EXPECT_EQ(fold.take_earliest_change(), SystemBandwidthFold::kUnchanged);

  // Samples add weight * 64 bytes at [time, time + 1).
  ASSERT_TRUE(fold.add(0, SampleEvent{1500, 0x1000, 2.0, 100.0, false, 0}).ok());
  ASSERT_TRUE(fold.add(1, SampleEvent{500, 0x1000, 1.0, 100.0, false, 0}).ok());
  EXPECT_FALSE(fold.has_uncore());
  EXPECT_EQ(fold.meter().bin_count(0), 2u);
  EXPECT_EQ(fold.meter().peak_gbs(0), 128.0 / 1000.0);
  EXPECT_EQ(fold.take_earliest_change(), 500u);
  EXPECT_EQ(fold.take_earliest_change(), SystemBandwidthFold::kUnchanged);

  // The first reading replaces the whole timeline: it changed from 0 on.
  // It adds (read + write) * period bytes over [time - period, time).
  ASSERT_TRUE(fold.add(2, UncoreBwEvent{4000, 1000, 1.5, 0.5}).ok());
  EXPECT_TRUE(fold.has_uncore());
  EXPECT_EQ(fold.max_period(), 1000u);
  EXPECT_EQ(fold.take_earliest_change(), 0u);
  ASSERT_EQ(fold.meter().bin_count(0), 4u);
  EXPECT_EQ(fold.meter().series(0)[1].gbs, 0.0);  // the samples are gone
  EXPECT_EQ(fold.meter().series(0)[3].gbs, 2.0);

  // Samples no longer count; a later reading changes from its own start.
  ASSERT_TRUE(fold.add(3, SampleEvent{4100, 0x1000, 8.0, 100.0, false, 0}).ok());
  EXPECT_EQ(fold.take_earliest_change(), SystemBandwidthFold::kUnchanged);
  ASSERT_TRUE(fold.add(4, UncoreBwEvent{6000, 1500, 1.0, 1.0}).ok());
  EXPECT_EQ(fold.max_period(), 1500u);
  EXPECT_EQ(fold.take_earliest_change(), 4500u);
  EXPECT_EQ(fold.meter().bin_count(0), 6u);
}

TEST(SystemBandwidthFold, RefusesNanAndNegativeValuesWithTheAnalyzersMessage) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SystemBandwidthFold fold(1000);
  ASSERT_TRUE(fold.add(0, SampleEvent{100, 0x1000, 1.0, 100.0, false, 0}).ok());
  ASSERT_EQ(fold.take_earliest_change(), 100u);

  const Status bad_read = fold.add(7, UncoreBwEvent{2000, 1000, nan, 1.0});
  ASSERT_FALSE(bad_read.ok());
  EXPECT_EQ(bad_read.error(), "event 7: uncore read_gbs nan is not a finite non-negative number");
  const Status bad_write = fold.add(8, UncoreBwEvent{2000, 1000, 1.0, -2.0});
  ASSERT_FALSE(bad_write.ok());
  EXPECT_EQ(bad_write.error(), "event 8: uncore write_gbs -2 is not a finite non-negative number");
  const Status bad_weight = fold.add(9, SampleEvent{300, 0x1000, -1.0, 100.0, false, 0});
  ASSERT_FALSE(bad_weight.ok());
  EXPECT_EQ(bad_weight.error(), "event 9: sample weight -1 is not a finite non-negative number");

  // A refused event adds nothing: still the sample meter, one bin.
  EXPECT_FALSE(fold.has_uncore());
  EXPECT_EQ(fold.max_period(), 0u);
  EXPECT_EQ(fold.meter().bin_count(0), 1u);
  EXPECT_EQ(fold.take_earliest_change(), SystemBandwidthFold::kUnchanged);

  // The analyzer fails the same stream with the same message.
  trace::Trace t;
  t.events.emplace_back(SampleEvent{100, 0x1000, 1.0, 100.0, false, 0});
  t.events.emplace_back(UncoreBwEvent{2000, 1000, 1.0, -2.0});
  const auto analysis = analyze(t);
  ASSERT_FALSE(analysis.has_value());
  EXPECT_EQ(analysis.error(), "event 1: uncore write_gbs -2 is not a finite non-negative number");
}

}  // namespace
}  // namespace ecohmem::analyzer
