#ifndef PHRASEMINE_SERVICE_CACHE_H_
#define PHRASEMINE_SERVICE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/miner.h"
#include "core/query.h"
#include "obs/metrics.h"

namespace phrasemine {

/// Aggregated counters of a ShardedLruCache (summed over shards).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// Renders "hits=... misses=... hit_rate=..%" for logs and benchmarks.
std::string FormatCacheStats(const CacheStats& stats);

/// Returns `query` with terms sorted and deduplicated. Phrase mining is
/// defined over term *sets* (Section 3), so canonicalizing makes every
/// spelling of the same set share one cache entry and one deterministic
/// execution order.
Query CanonicalizeQuery(const Query& query);

/// Cache key for a full MineResult, built from the request rather than
/// its plan: canonicalized query terms + operator + the forced algorithm
/// (nullopt for a planner-routed request, which keys apart from every
/// forced one) + every MineOptions knob that affects the ranked output.
/// A planned request can then be looked up before anything is planned.
/// `smj_fraction` is the construction fraction of the id-ordered lists the
/// fleet serves (it determines kSmj output, and a planned request may run
/// kSmj); PhraseService always passes it. `shard_epochs` is the composite
/// epoch vector (ShardedEngine::epochs, one entry per shard) the result is
/// valid for: stamping the full vector into the key makes an Ingest
/// atomically unreachable-invalidate every stale entry without a global
/// flush (old-epoch entries age out of the LRU), and two different vectors
/// that share one epoch sum never alias. Queries carrying a
/// caller-supplied delta overlay must not be cached (that overlay is
/// external mutable state); PhraseService skips the cache for those.
std::string ResultCacheKey(const Query& canonical_query,
                           std::optional<Algorithm> algorithm,
                           const MineOptions& options,
                           double smj_fraction = -1.0,
                           std::span<const uint64_t> shard_epochs = {});

/// A fixed-capacity LRU cache split into independently locked shards, so
/// concurrent queries on different keys rarely contend. Capacity is
/// byte-based: every Put carries an explicit charge and each shard evicts
/// from its own LRU tail once its slice of the budget is exceeded.
///
/// Value should be cheap to copy -- PhraseService stores shared_ptrs to
/// immutable results, so a Get hands out shared ownership
/// and an eviction never invalidates data a running query still uses.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `num_shards` is clamped to at least 1; `capacity_bytes` is the total
  /// budget across all shards. When `registry` is non-null the cache also
  /// publishes its counters there under `metric_prefix` (hits/misses/
  /// inserts/evictions counters, entries/bytes gauges); the per-shard
  /// tallies behind stats() are unaffected either way.
  ShardedLruCache(std::size_t num_shards, std::size_t capacity_bytes,
                  MetricsRegistry* registry = nullptr,
                  const std::string& metric_prefix = "cache") {
    if (num_shards == 0) num_shards = 1;
    const std::size_t per_shard =
        std::max<std::size_t>(1, capacity_bytes / num_shards);
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
    if (registry != nullptr) {
      hits_metric_ = registry->GetCounter(metric_prefix + "_hits_total");
      misses_metric_ = registry->GetCounter(metric_prefix + "_misses_total");
      inserts_metric_ = registry->GetCounter(metric_prefix + "_inserts_total");
      evictions_metric_ =
          registry->GetCounter(metric_prefix + "_evictions_total");
      entries_metric_ = registry->GetGauge(metric_prefix + "_entries");
      bytes_metric_ = registry->GetGauge(metric_prefix + "_bytes");
    }
  }

  /// Returns the value and marks the entry most-recently-used.
  /// `count_miss` false leaves a miss uncounted, for a look that a later,
  /// counted Get of the same key follows (so a lookup counts once).
  std::optional<Value> Get(const Key& key, bool count_miss = true) {
    Shard& s = shard(key);
    std::scoped_lock lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      if (count_miss) {
        ++s.misses;
        if (misses_metric_ != nullptr) misses_metric_->Increment();
      }
      return std::nullopt;
    }
    ++s.hits;
    if (hits_metric_ != nullptr) hits_metric_->Increment();
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->value;
  }

  /// Inserts or refreshes an entry charged at `charge` bytes, then evicts
  /// least-recently-used entries until the shard fits its budget. A charge
  /// larger than the whole shard budget is still admitted (the shard then
  /// holds just that entry), so oversized results remain cacheable.
  void Put(const Key& key, Value value, std::size_t charge) {
    Shard& s = shard(key);
    std::scoped_lock lock(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.bytes -= it->second->charge;
      if (bytes_metric_ != nullptr) {
        bytes_metric_->Add(static_cast<int64_t>(charge) -
                           static_cast<int64_t>(it->second->charge));
      }
      it->second->value = std::move(value);
      it->second->charge = charge;
      s.bytes += charge;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
    } else {
      s.lru.push_front(Entry{key, std::move(value), charge});
      s.map.emplace(key, s.lru.begin());
      s.bytes += charge;
      ++s.inserts;
      if (inserts_metric_ != nullptr) inserts_metric_->Increment();
      if (entries_metric_ != nullptr) entries_metric_->Add(1);
      if (bytes_metric_ != nullptr) {
        bytes_metric_->Add(static_cast<int64_t>(charge));
      }
    }
    while (s.bytes > s.capacity && s.lru.size() > 1) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.charge;
      ++s.evictions;
      if (evictions_metric_ != nullptr) evictions_metric_->Increment();
      if (entries_metric_ != nullptr) entries_metric_->Add(-1);
      if (bytes_metric_ != nullptr) {
        bytes_metric_->Add(-static_cast<int64_t>(victim.charge));
      }
      s.map.erase(victim.key);
      s.lru.pop_back();
    }
  }

  /// Peeks for presence without touching LRU order or hit counters.
  bool Contains(const Key& key) const {
    const Shard& s = shard(key);
    std::scoped_lock lock(s.mu);
    return s.map.contains(key);
  }

  /// Returns the value without touching LRU order or hit/miss counters.
  /// Used by the planner to probe list availability without polluting the
  /// serving hit rate.
  std::optional<Value> Peek(const Key& key) const {
    const Shard& s = shard(key);
    std::scoped_lock lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return std::nullopt;
    return it->second->value;
  }

  /// Drops every entry; counters are kept.
  void Clear() {
    for (auto& s : shards_) {
      std::scoped_lock lock(s->mu);
      if (entries_metric_ != nullptr) {
        entries_metric_->Add(-static_cast<int64_t>(s->map.size()));
      }
      if (bytes_metric_ != nullptr) {
        bytes_metric_->Add(-static_cast<int64_t>(s->bytes));
      }
      s->map.clear();
      s->lru.clear();
      s->bytes = 0;
    }
  }

  CacheStats stats() const {
    CacheStats total;
    for (const auto& s : shards_) {
      std::scoped_lock lock(s->mu);
      total.hits += s->hits;
      total.misses += s->misses;
      total.inserts += s->inserts;
      total.evictions += s->evictions;
      total.entries += s->map.size();
      total.bytes += s->bytes;
      total.capacity_bytes += s->capacity;
    }
    return total;
  }

  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    Key key;
    Value value;
    std::size_t charge;
  };

  struct Shard {
    explicit Shard(std::size_t capacity_bytes) : capacity(capacity_bytes) {}

    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map;
    std::size_t capacity;
    std::size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };

  Shard& shard(const Key& key) {
    return *shards_[hash_(key) % shards_.size()];
  }
  const Shard& shard(const Key& key) const {
    return *shards_[hash_(key) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  Hash hash_;
  // Optional registry handles (all null when no registry was given).
  Counter* hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;
  Counter* inserts_metric_ = nullptr;
  Counter* evictions_metric_ = nullptr;
  Gauge* entries_metric_ = nullptr;
  Gauge* bytes_metric_ = nullptr;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_SERVICE_CACHE_H_
