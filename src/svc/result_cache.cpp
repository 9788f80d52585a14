#include "svc/result_cache.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace fsyn::svc {

namespace {

/// Hash over typed fields.  Field order defines the canonical serialization;
/// a sentinel is mixed between variable-length sections so e.g. {1,2},{3}
/// and {1},{2,3} hash differently.
///
/// Fields are buffered as 64-bit words and hashed in one batched pass in
/// `value()` — the old implementation folded every word into FNV-1a one
/// *byte* at a time (8 dependent multiplies per field), which showed up in
/// service profiles once admission control started hashing every request.
class Hasher {
 public:
  /// Integral fields (bools, ints, seeds) hash via their sign-extended
  /// 64-bit pattern; one template avoids overload ambiguity across the
  /// platform-dependent int64/uint64 typedef zoo.
  template <typename T>
    requires std::is_integral_v<T>
  void mix(T v) {
    words_.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    words_.push_back(bits);
  }
  void mix(const std::string& s) {
    words_.push_back(s.size());
    // Pack the bytes eight to a word instead of one word per character.
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t word = 0;
      const std::size_t chunk = std::min<std::size_t>(8, s.size() - i);
      std::memcpy(&word, s.data() + i, chunk);
      words_.push_back(word);
    }
  }
  /// Section separator for variable-length parts.
  void section(std::uint64_t tag) { words_.push_back(0x9e3779b97f4a7c15ULL ^ tag); }

  /// One pass over the buffered words: each word is avalanched
  /// (splitmix64 finalizer) and folded into the running hash with the FNV
  /// prime, so every input bit reaches every output bit without the
  /// per-byte dependency chain of classic FNV-1a.
  std::uint64_t value() const {
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
    for (std::uint64_t word : words_) {
      word += 0x9e3779b97f4a7c15ULL;
      word = (word ^ (word >> 30)) * 0xbf58476d1ce4e5b9ULL;
      word = (word ^ (word >> 27)) * 0x94d049bb133111ebULL;
      word ^= word >> 31;
      hash = (hash ^ word) * 0x100000001b3ULL;  // FNV prime
    }
    return hash;
  }

 private:
  std::vector<std::uint64_t> words_;
};

void mix_graph(Hasher& h, const assay::SequencingGraph& graph) {
  h.section(1);
  h.mix(graph.size());
  for (const assay::Operation& op : graph.operations()) {
    // Names are display-only; identity is structural.
    h.mix(static_cast<int>(op.kind));
    h.mix(op.volume);
    h.mix(op.duration);
    h.section(2);
    for (const assay::OpId parent : op.parents) h.mix(parent.index);
    h.section(3);
    for (const int part : op.ratio) h.mix(part);
  }
}

void mix_schedule(Hasher& h, const sched::Schedule& schedule) {
  h.section(4);
  h.mix(schedule.transport_delay);
  for (const int t : schedule.start) h.mix(t);
  h.section(5);
  for (const int t : schedule.end) h.mix(t);
}

void mix_options(Hasher& h, const synth::SynthesisOptions& options) {
  h.section(6);
  h.mix(static_cast<int>(options.mapper));
  h.mix(options.heuristic.seed);
  h.mix(options.heuristic.greedy_retries);
  h.mix(options.heuristic.sa_iterations);
  h.mix(options.heuristic.warm_start.has_value());
  if (options.heuristic.warm_start.has_value()) {
    for (const arch::DeviceInstance& device : *options.heuristic.warm_start) {
      h.mix(device.type.width);
      h.mix(device.type.height);
      h.mix(device.origin.x);
      h.mix(device.origin.y);
    }
  }
  h.mix(options.ilp.time_limit_seconds);
  h.mix(options.ilp.max_nodes);
  // The asynchronous parallel search proves the same optimum but may
  // tie-break to a different optimal placement, so thread settings are
  // result-affecting.
  h.mix(options.ilp.threads);
  // Root cuts change the search trajectory, so they are result-affecting
  // through optimal-placement tie-breaks too.
  h.mix(options.ilp.cuts);
  h.mix(options.ilp.warm_start.has_value());
  if (options.ilp.warm_start.has_value()) {
    for (const arch::DeviceInstance& device : *options.ilp.warm_start) {
      h.mix(device.type.width);
      h.mix(device.type.height);
      h.mix(device.origin.x);
      h.mix(device.origin.y);
    }
  }
  h.mix(options.warm_start_ilp);
  h.mix(options.grid_size.value_or(-1));
  h.mix(options.chip_slack);
  h.mix(options.max_chip_growth);
  h.mix(options.chip_sweep);
  h.mix(options.valve_weight);
  h.mix(options.routing_retries);
  h.mix(options.allow_storage_overlap);
  h.mix(options.routing_convenient);
  h.section(7);
  for (const Point& valve : options.dead_valves) {
    h.mix(valve.x);
    h.mix(valve.y);
  }
  h.section(8);
  h.mix(options.router.congestion_penalty);
  for (const auto& [fluid, port] : options.router.port_of_fluid) {  // std::map: sorted
    h.mix(fluid);
    h.mix(port);
  }
}

}  // namespace

CacheKey canonical_key(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                       const synth::SynthesisOptions& options) {
  Hasher h;
  mix_graph(h, graph);
  mix_schedule(h, schedule);
  mix_options(h, options);
  return h.value();
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) return;
  const std::size_t shard_count = std::min(kMaxShards, capacity);
  shards_.reserve(shard_count);
  // Distribute the capacity across shards; the remainder goes to the first
  // shards one slot each, so the total stays exactly `capacity`.
  const std::size_t base = capacity / shard_count;
  const std::size_t extra = capacity % shard_count;
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

std::shared_ptr<const synth::SynthesisResult> ResultCache::lookup(CacheKey key) {
  if (shards_.empty()) {
    disabled_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    return nullptr;
  }
  ++s.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  return it->second->second;
}

void ResultCache::insert(CacheKey key, std::shared_ptr<const synth::SynthesisResult> result) {
  if (shards_.empty()) return;
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->second = std::move(result);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= s.capacity) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.lru.emplace_front(key, std::move(result));
  s.index[key] = s.lru.begin();
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  stats.capacity = capacity_;
  stats.misses = disabled_misses_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace fsyn::svc
