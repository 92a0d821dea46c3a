#include "ecohmem/online/sharded.hpp"

namespace ecohmem::online {

namespace {

/// Splitmix64-style mix of the policy seed with the shard index. A pure
/// function of (seed, shard): the per-shard sample streams are fixed at
/// construction.
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

ShardedOnlineState::ShardedOnlineState(const OnlinePolicyConfig& config) {
  shards_.reserve(kSamplerShards);
  for (std::size_t s = 0; s < kSamplerShards; ++s) {
    shards_.emplace_back(config.sample_rate, shard_seed(config.seed, s), config.ewma_alpha,
                         config.window);
  }
}

void ShardedOnlineState::process_kernel(const std::vector<ObjectAccess>& feedback) {
  for (const ObjectAccess& access : feedback) {
    Shard& sh = shards_[shard_of(access.object)];
    const SampledAccess sampled = sh.sampler.sample(access);
    const auto events = static_cast<double>(sampled.loads + sampled.stores);
    if (events > 0.0) sh.tracker.record(access.object, events, access.bytes);
  }
  for (Shard& sh : shards_) sh.tracker.end_kernel();
}

void ShardedOnlineState::forget(std::size_t object) {
  shards_[shard_of(object)].tracker.forget(object);
}

void ShardedOnlineState::seed(std::size_t object, double prior) {
  shards_[shard_of(object)].tracker.seed(object, prior);
}

double ShardedOnlineState::hotness(std::size_t object) const {
  return shards_[shard_of(object)].tracker.hotness(object);
}

double ShardedOnlineState::shield(std::size_t object) const {
  return shards_[shard_of(object)].tracker.shield(object);
}

std::uint64_t ShardedOnlineState::age(std::size_t object) const {
  return shards_[shard_of(object)].tracker.age(object);
}

std::size_t ShardedOnlineState::tracked() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.tracker.tracked();
  return total;
}

}  // namespace ecohmem::online
