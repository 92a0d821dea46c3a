#pragma once

/// \file hotness.hpp
/// Per-object EWMA miss-density tracking over a sliding kernel window.
///
/// Hotness is measured in sampled miss events per MiB of object size per
/// kernel, smoothed with an exponentially-weighted moving average:
///
///   hotness' = (1 - alpha) * hotness + alpha * density_this_kernel
///
/// Objects a kernel does not touch decay toward zero with the same
/// alpha, so a formerly-hot object cools off instead of staying hot
/// forever — the property that lets the migration policy react to phase
/// shifts.
///
/// Alongside the instantaneous EWMA the tracker maintains each object's
/// `shield`: the maximum the EWMA reached over the last `window` kernels.
/// The planner protects fast-tier residents by their shield, not their
/// instantaneous hotness — an object touched hard by *any* kernel of the
/// last window keeps its peak, so periodic workloads (where each kernel
/// of an iteration hammers a different subset) do not ping-pong objects
/// whose EWMA happens to dip between their hot kernels. Only objects
/// whose entire recent window is cold — a genuine phase shift — lose
/// their shield and become displacement victims.
///
/// All updates happen in kernel-replay order; the tracker is
/// deterministic plain data.

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "ecohmem/common/units.hpp"

namespace ecohmem::online {

class HotnessTracker {
 public:
  HotnessTracker(double alpha, std::uint64_t window) : alpha_(alpha), window_(window) {}

  /// Records `events` sampled misses against an object of `bytes` bytes
  /// for the current kernel. At most one call per object per kernel.
  void record(std::size_t object, double events, Bytes bytes);

  /// Ends the current kernel: objects not recorded since the previous
  /// call decay by (1 - alpha), and every object's windowed maximum is
  /// advanced by one kernel.
  void end_kernel();

  /// Current EWMA miss density of `object` (0 for unknown objects).
  [[nodiscard]] double hotness(std::size_t object) const;

  /// Maximum the EWMA reached over the last `window` kernels (0 for
  /// unknown objects). The displacement-protection value.
  [[nodiscard]] double shield(std::size_t object) const;

  /// Kernels the object's history has survived (0 for unknown objects).
  /// Freeing an object resets its history, so a freshly (re)allocated
  /// object starts at age 0 — the planner uses this to keep short-lived
  /// transients (per-step temporaries) from ever being promoted: only
  /// objects that outlive a full `window` are migration candidates.
  [[nodiscard]] std::uint64_t age(std::size_t object) const;

  /// Drops an object's history (called when it is freed).
  void forget(std::size_t object);

  /// Seeds an object with offline-guidance history: the entry is born
  /// `window` kernels in the past (so the age gate treats it as mature
  /// immediately) and its EWMA/shield start at `prior` instead of 0.
  /// Used by the guidance-seeded mode (docs/online.md) so report-placed
  /// objects are neither blocked from promotion nor instantly displaced
  /// before the sampler has observed them. No-op when the object is
  /// already tracked — live sampling beats a stale prior.
  void seed(std::size_t object, double prior);

  /// Number of objects with tracked history.
  [[nodiscard]] std::size_t tracked() const { return entries_.size(); }

 private:
  struct Entry {
    double hotness = 0.0;
    bool touched = false;    ///< recorded since the last end_kernel()
    /// kernel_ when the entry was created. Signed: seed() backdates an
    /// entry by a full window, which near startup lands before kernel 0.
    std::int64_t born = 0;
    /// Monotonic max-deque over the last `window` per-kernel EWMA values:
    /// front() is the windowed maximum; values are (kernel index, ewma).
    std::deque<std::pair<std::uint64_t, double>> peaks;
  };

  double alpha_;
  std::uint64_t window_;
  std::uint64_t kernel_ = 0;  ///< kernels seen (end_kernel calls)
  std::unordered_map<std::size_t, Entry> entries_;
};

}  // namespace ecohmem::online
