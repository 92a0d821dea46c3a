#include "ecohmem/memsim/bandwidth_meter.hpp"

#include <algorithm>
#include <cmath>

namespace ecohmem::memsim {

BandwidthMeter::BandwidthMeter(std::size_t tiers, Ns bin_ns)
    : bin_ns_(std::max<Ns>(bin_ns, 1)), bins_(tiers) {}

void BandwidthMeter::add(std::size_t tier, Ns t0, Ns t1, double bytes) {
  if (tier >= bins_.size() || bytes <= 0.0) return;
  if (t1 <= t0) t1 = t0 + 1;

  auto& lane = bins_[tier];
  const std::size_t first = static_cast<std::size_t>(t0 / bin_ns_);
  const std::size_t last = static_cast<std::size_t>((t1 - 1) / bin_ns_);
  if (last >= lane.size()) lane.resize(last + 1, 0.0);

  const double span = static_cast<double>(t1 - t0);
  const auto end_share = [&](std::size_t b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns_;
    const Ns overlap = std::min(bin_start + bin_ns_, t1) - std::max(bin_start, t0);
    return bytes * (static_cast<double>(overlap) / span);
  };
  lane[first] += end_share(first);
  if (last == first) return;
  // Every bin strictly between the ends overlaps the span by exactly
  // bin_ns_, so its share is the same double for all of them.
  const double interior = bytes * (static_cast<double>(bin_ns_) / span);
  for (std::size_t b = first + 1; b < last; ++b) lane[b] += interior;
  lane[last] += end_share(last);
}

std::vector<BandwidthPoint> BandwidthMeter::series(std::size_t tier) const {
  std::vector<BandwidthPoint> out;
  if (tier >= bins_.size()) return out;
  const auto& lane = bins_[tier];
  out.reserve(lane.size());
  for (std::size_t b = 0; b < lane.size(); ++b) {
    out.push_back({static_cast<Ns>(b) * bin_ns_,
                   lane[b] / static_cast<double>(bin_ns_)});
  }
  return out;
}

WindowAverages BandwidthMeter::window_averages(std::size_t tier) const {
  static const std::vector<double> kNoTraffic;
  return WindowAverages(tier < bins_.size() ? bins_[tier] : kNoTraffic, bin_ns_);
}

WindowAverages::WindowAverages(const std::vector<double>& lane, Ns bin_ns)
    : lane_(&lane), bin_ns_(bin_ns), whole_(lane.size()) {
  const auto bin = static_cast<double>(bin_ns_);
  for (std::size_t b = 0; b < lane.size(); ++b) whole_[b] = lane[b] * bin / bin;
}

double WindowAverages::average_gbs(Ns t0, Ns t1, Prefix& prefix, std::size_t stable_end) const {
  if (t1 <= t0) return 0.0;
  const std::vector<double>& lane = *lane_;
  const std::size_t first = static_cast<std::size_t>(t0 / bin_ns_);
  const std::size_t last = static_cast<std::size_t>((t1 - 1) / bin_ns_);
  const auto share = [&](std::size_t b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns_;
    const Ns overlap = std::min(bin_start + bin_ns_, t1) - std::max(bin_start, t0);
    return lane[b] * static_cast<double>(overlap) / static_cast<double>(bin_ns_);
  };
  // Bins past the lane saw no traffic.
  double bytes = 0.0;
  if (first < lane.size()) {
    std::size_t b = first + 1;
    if (prefix.end > first) {
      bytes = prefix.bytes;
      b = prefix.end;
    } else {
      bytes += share(first);
    }
    const std::size_t interior_end = std::min(last, lane.size());
    if (last > first && first < stable_end) {
      for (const std::size_t stop = std::min(interior_end, stable_end); b < stop; ++b) {
        bytes += whole_[b];
      }
      prefix = {b, bytes};
    }
    for (; b < interior_end; ++b) bytes += whole_[b];
    if (last > first && last < lane.size()) bytes += share(last);
  }
  return bytes / static_cast<double>(t1 - t0);
}

double BandwidthMeter::peak_gbs(std::size_t tier) const {
  if (tier >= bins_.size()) return 0.0;
  double peak = 0.0;
  for (const double bytes : bins_[tier]) {
    peak = std::max(peak, bytes / static_cast<double>(bin_ns_));
  }
  return peak;
}

}  // namespace ecohmem::memsim
