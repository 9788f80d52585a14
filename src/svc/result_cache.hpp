// Canonical-key LRU cache of synthesis results.
//
// A batch sweep revisits the same (assay, schedule, options) point whenever
// two specs collapse to identical inputs — repeated CLI invocations, the
// policy sweep's duplicate rows, or clients re-asking for a design they
// already received.  Synthesis is deterministic in its options (seeds
// included), so a cached `SynthesisResult` is bit-identical to what a fresh
// solve would produce and can be served without running a mapper.
//
// The key is a 64-bit FNV-1a hash over a canonical serialization of the
// sequencing graph *structure* (kinds, parents, ratios, volumes, durations
// — names are display-only and excluded), the schedule times, and every
// result-affecting field of SynthesisOptions.  A collision would serve the
// wrong design; at 64 bits and cache sizes in the hundreds the probability
// is ~1e-15 per pair, which the service accepts.
//
// Thread-safe; hit/miss/eviction counters feed the metrics registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "assay/sequencing_graph.hpp"
#include "sched/schedule.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::svc {

using CacheKey = std::uint64_t;

/// Canonical cache key for one synthesis job.  Two jobs with equal keys
/// produce identical results (same graph structure, schedule and options).
/// Every field of `SynthesisOptions` is hashed except the three cancel
/// tokens, which never change a result.
CacheKey canonical_key(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                       const synth::SynthesisOptions& options);

struct CacheStats {
  long hits = 0;
  long misses = 0;
  long evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

/// Sharded LRU: the key space is split across up to `kMaxShards`
/// independent (mutex, list, map) shards selected by key hash, so
/// concurrent pool workers stop serializing on one cache-wide lock.  Each
/// shard runs its own LRU over its slice of the capacity — a hot shard can
/// evict while another is cold, which is the usual sharded-LRU
/// approximation of global recency and is invisible to correctness (only
/// to hit rate, marginally).
class ResultCache {
 public:
  static constexpr std::size_t kMaxShards = 8;

  /// `capacity` 0 disables caching entirely (every lookup is a miss and
  /// inserts are dropped), which keeps the service code branch-free.
  /// Otherwise min(kMaxShards, capacity) shards split the capacity, so
  /// tiny caches (capacity 1) keep exact LRU semantics in one shard.
  explicit ResultCache(std::size_t capacity);

  /// Returns the cached result and refreshes its recency, or nullptr.
  /// Every call is recorded as a hit or a miss.
  std::shared_ptr<const synth::SynthesisResult> lookup(CacheKey key);

  /// Inserts (or refreshes) an entry, evicting the shard's
  /// least-recently-used one when the shard is full.
  void insert(CacheKey key, std::shared_ptr<const synth::SynthesisResult> result);

  /// Sums counters over all shards (each shard locked in turn, so the
  /// totals are consistent-enough for metrics, not a point-in-time cut).
  CacheStats stats() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  using LruList = std::list<std::pair<CacheKey, std::shared_ptr<const synth::SynthesisResult>>>;

  struct Shard {
    std::size_t capacity = 0;
    mutable std::mutex mutex;
    LruList lru;  ///< front = most recently used
    std::unordered_map<CacheKey, LruList::iterator> index;
    long hits = 0;
    long misses = 0;
    long evictions = 0;
  };

  Shard& shard_for(CacheKey key) {
    // The key is already a 64-bit FNV hash; fold the high bits in so shard
    // choice is not just `key % n` over correlated low bits.
    const std::uint64_t spread = key ^ (key >> 32);
    return *shards_[static_cast<std::size_t>(spread) % shards_.size()];
  }

  const std::size_t capacity_;
  /// unique_ptr: Shard owns a mutex and must not move when the vector is
  /// built.  Empty when caching is disabled.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Lookups against a disabled cache still count as misses in the metrics.
  std::atomic<long> disabled_misses_{0};
};

}  // namespace fsyn::svc
