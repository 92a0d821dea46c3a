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

double BandwidthMeter::average_gbs(std::size_t tier, Ns t0, Ns t1) const {
  if (tier >= bins_.size() || t1 <= t0) return 0.0;
  const auto& lane = bins_[tier];
  double bytes = 0.0;
  const std::size_t first = static_cast<std::size_t>(t0 / bin_ns_);
  const std::size_t last = static_cast<std::size_t>((t1 - 1) / bin_ns_);
  for (std::size_t b = first; b <= last && b < lane.size(); ++b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns_;
    const Ns bin_end = bin_start + bin_ns_;
    const Ns overlap_start = std::max(bin_start, t0);
    const Ns overlap_end = std::min(bin_end, t1);
    bytes += lane[b] * static_cast<double>(overlap_end - overlap_start) /
             static_cast<double>(bin_ns_);
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
