#include "service/cache.h"

#include <algorithm>
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

std::string ResultCacheKey(const Query& canonical_query, Algorithm algorithm,
                           const MineOptions& options, double smj_fraction,
                           std::span<const uint64_t> shard_epochs) {
  char buf[224];
  std::snprintf(buf, sizeof(buf), "a%d|o%d|k%zu|f%.17g|s%.17g|b%zu|e%d|m%d|t:",
                static_cast<int>(algorithm),
                static_cast<int>(canonical_query.op), options.k,
                options.list_fraction, smj_fraction, options.nra_batch_size,
                static_cast<int>(options.or_order),
                static_cast<int>(options.measure));
  std::string key = buf;
  for (TermId t : canonical_query.terms) {
    std::snprintf(buf, sizeof(buf), "%u,", t);
    key += buf;
  }
  if (!shard_epochs.empty()) {
    key += "|v:";
    for (uint64_t e : shard_epochs) {
      std::snprintf(buf, sizeof(buf), "%llu,",
                    static_cast<unsigned long long>(e));
      key += buf;
    }
  }
  return key;
}

}  // namespace phrasemine
