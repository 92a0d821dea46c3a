#pragma once

/// \file bandwidth_meter.hpp
/// Time-binned per-tier bandwidth accounting.
///
/// The execution engine records bytes moved per tier per kernel step; the
/// meter smears them over fixed-width time bins to produce the bandwidth
/// timelines of the paper's Fig. 3 and Fig. 7 and the bandwidth-region
/// classification (B_low / B_mid / B_high, Table II) used by the
/// bandwidth-aware placement algorithm.

#include <cstddef>
#include <vector>

#include "ecohmem/common/units.hpp"

namespace ecohmem::memsim {

struct BandwidthPoint {
  Ns time = 0;        ///< bin start
  double gbs = 0.0;   ///< average bandwidth over the bin
};

class WindowAverages;

class BandwidthMeter {
 public:
  /// `tiers`: number of tiers tracked. `bin_ns`: bin width.
  BandwidthMeter(std::size_t tiers, Ns bin_ns);

  /// Adds `bytes` of traffic on `tier` spread uniformly over [t0, t1)
  /// (a point when t1 <= t0): each bin gets `bytes * (overlap / span)`.
  /// Only the first and last bin divide their own overlap; every bin
  /// between them overlaps by `bin_ns` and gets the one share
  /// `bytes * (bin_ns / span)`, computed once per call.
  void add(std::size_t tier, Ns t0, Ns t1, double bytes);

  /// Bandwidth timeline of one tier (bins up to the last touched bin),
  /// built on each call from the binned bytes.
  [[nodiscard]] std::vector<BandwidthPoint> series(std::size_t tier) const;

  /// Average bandwidths of `tier` over time windows (a tier past the
  /// meter's has no traffic).
  [[nodiscard]] WindowAverages window_averages(std::size_t tier) const;

  /// Peak binned bandwidth of `tier` over the whole run.
  [[nodiscard]] double peak_gbs(std::size_t tier) const;

  [[nodiscard]] Ns bin_ns() const { return bin_ns_; }
  [[nodiscard]] std::size_t tier_count() const { return bins_.size(); }

  /// Bins of `tier` up to its last touched one: the length of `series(tier)`.
  [[nodiscard]] std::size_t bin_count(std::size_t tier) const {
    return tier < bins_.size() ? bins_[tier].size() : 0;
  }

 private:
  Ns bin_ns_;
  std::vector<std::vector<double>> bins_;  // [tier][bin] -> bytes
};

/// Average bandwidths of one tier of a `BandwidthMeter`. A window sums
/// each bin's bytes times the share of the bin it covers, in ascending
/// bin order: `bytes * overlap / bin_ns` for its first and last bin and
/// `bytes * bin_ns / bin_ns` for each bin between them. The whole-bin
/// terms are computed once, on construction, so a window divides only
/// at its two end bins, however many bins it spans. Reads the meter's
/// bins in place: the meter must outlive it and take no more traffic
/// meanwhile.
class WindowAverages {
 public:
  /// The running byte sum of a window up to one of its bins: its first
  /// bin's share and the whole bins after it, up to `end`.
  struct Prefix {
    std::size_t end = 0;  ///< first bin not summed; 0 when nothing is carried
    double bytes = 0.0;
  };

  /// Average bandwidth over [t0, t1); 0 for an empty window.
  [[nodiscard]] double average_gbs(Ns t0, Ns t1) const {
    Prefix none;
    return average_gbs(t0, t1, none, 0);
  }

  /// `average_gbs(t0, t1)` of a window that grows: continues from
  /// `prefix` when it holds a sum of this window, and leaves in it the
  /// sum up to the window's first bin at or past `stable_end` once the
  /// window reaches past its first bin (that share no longer depends
  /// on `t1`). Between calls on one prefix, `t0` stays, `t1` does not
  /// decrease, and no bin below `stable_end` takes traffic. The result
  /// is bit-identical to the two-argument call's: the same terms are
  /// added in the same order, some of them in an earlier call.
  [[nodiscard]] double average_gbs(Ns t0, Ns t1, Prefix& prefix, std::size_t stable_end) const;

 private:
  friend class BandwidthMeter;
  WindowAverages(const std::vector<double>& lane, Ns bin_ns);

  const std::vector<double>* lane_;
  Ns bin_ns_;
  std::vector<double> whole_;  ///< whole_[b] = (*lane_)[b] * bin_ns / bin_ns
};

}  // namespace ecohmem::memsim
