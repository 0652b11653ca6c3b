#include "service/cache.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace phrasemine {

std::string FormatCacheStats(const CacheStats& stats) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu hit_rate=%.1f%% entries=%zu "
                "bytes=%zu/%zu evictions=%llu",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                100.0 * stats.HitRate(), stats.entries, stats.bytes,
                stats.capacity_bytes,
                static_cast<unsigned long long>(stats.evictions));
  return buf;
}

Query CanonicalizeQuery(const Query& query) {
  Query canonical = query;
  std::sort(canonical.terms.begin(), canonical.terms.end());
  canonical.terms.erase(
      std::unique(canonical.terms.begin(), canonical.terms.end()),
      canonical.terms.end());
  return canonical;
}

namespace {

/// Appends `tag`, then `value` in std::to_chars' shortest round-trip form
/// (distinct values never render alike), to a key under construction.
template <typename T>
void AppendField(std::string* key, char tag, T value) {
  char buf[32];
  buf[0] = tag;
  const auto end = std::to_chars(buf + 1, buf + sizeof(buf), value).ptr;
  key->append(buf, end);
}

}  // namespace

std::string ResultCacheKey(const Query& canonical_query,
                           std::optional<Algorithm> algorithm,
                           const MineOptions& options, double smj_fraction,
                           std::span<const uint64_t> shard_epochs) {
  // Built on every request, cache hits included, so it avoids printf.
  std::string key;
  key.reserve(64 + 8 * (canonical_query.terms.size() + shard_epochs.size()));
  AppendField(&key, 'a',
              algorithm.has_value() ? static_cast<int>(*algorithm) : -1);
  AppendField(&key, 'o', static_cast<int>(canonical_query.op));
  AppendField(&key, 'k', options.k);
  AppendField(&key, 'f', options.list_fraction);
  AppendField(&key, 's', smj_fraction);
  AppendField(&key, 'b', options.nra_batch_size);
  AppendField(&key, 'e', static_cast<int>(options.or_order));
  AppendField(&key, 'm', static_cast<int>(options.measure));
  key += "|t";
  for (TermId t : canonical_query.terms) AppendField(&key, ',', t);
  if (!shard_epochs.empty()) {
    key += "|v";
    for (uint64_t e : shard_epochs) AppendField(&key, ',', e);
  }
  return key;
}

}  // namespace phrasemine
