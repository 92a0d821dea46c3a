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
  for (std::size_t b = first; b <= last; ++b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns_;
    const Ns bin_end = bin_start + bin_ns_;
    const Ns overlap_start = std::max(bin_start, t0);
    const Ns overlap_end = std::min(bin_end, t1);
    const double frac = static_cast<double>(overlap_end - overlap_start) / span;
    lane[b] += bytes * frac;
  }
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

double WindowAverages::average_gbs(Ns t0, Ns t1) const {
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
    bytes += share(first);
    const std::size_t interior_end = std::min(last, lane.size());
    for (std::size_t b = first + 1; b < interior_end; ++b) bytes += whole_[b];
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
