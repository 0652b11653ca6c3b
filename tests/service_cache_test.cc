// ShardedLruCache eviction/stats behaviour and result-key canonicalization.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "service/cache.h"

namespace phrasemine {
namespace {

using StringCache = ShardedLruCache<int, std::shared_ptr<std::string>>;

std::shared_ptr<std::string> Val(const std::string& s) {
  return std::make_shared<std::string>(s);
}

TEST(ShardedLruCacheTest, PutGetAndMissCounters) {
  StringCache cache(/*num_shards=*/1, /*capacity_bytes=*/1000);
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, Val("one"), 10);
  auto hit = cache.Get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(**hit, "one");

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 10u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedOnByteBudget) {
  StringCache cache(1, 100);
  cache.Put(1, Val("a"), 40);
  cache.Put(2, Val("b"), 40);
  ASSERT_TRUE(cache.Get(1).has_value());  // 1 is now most recent.
  cache.Put(3, Val("c"), 40);             // 120 > 100: evict LRU = 2.

  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 100u);
}

TEST(ShardedLruCacheTest, OversizedEntryIsStillAdmitted) {
  StringCache cache(1, 100);
  cache.Put(1, Val("a"), 40);
  cache.Put(2, Val("big"), 1000);  // Larger than the whole budget.
  EXPECT_TRUE(cache.Get(2).has_value());
  EXPECT_FALSE(cache.Get(1).has_value());  // Evicted to make room.
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ShardedLruCacheTest, RefreshUpdatesValueAndCharge) {
  StringCache cache(1, 100);
  cache.Put(1, Val("old"), 40);
  cache.Put(1, Val("new"), 60);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 60u);
  EXPECT_EQ(stats.inserts, 1u);  // Refresh, not a second insert.
  EXPECT_EQ(**cache.Get(1), "new");
}

TEST(ShardedLruCacheTest, PeekDoesNotTouchCountersOrOrder) {
  StringCache cache(1, 100);
  cache.Put(1, Val("a"), 40);
  cache.Put(2, Val("b"), 40);
  ASSERT_TRUE(cache.Peek(1).has_value());  // Must NOT refresh key 1.
  const CacheStats before = cache.stats();
  EXPECT_EQ(before.hits, 0u);
  EXPECT_EQ(before.misses, 0u);
  cache.Put(3, Val("c"), 40);  // Evicts 1: Peek left it least-recent.
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
}

TEST(ShardedLruCacheTest, ClearDropsEntriesKeepsCounters) {
  StringCache cache(4, 1000);
  cache.Put(1, Val("a"), 10);
  cache.Put(2, Val("b"), 10);
  ASSERT_TRUE(cache.Get(1).has_value());
  cache.Clear();
  EXPECT_FALSE(cache.Get(1).has_value());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);  // Counters survive Clear.
}

TEST(ShardedLruCacheTest, ShardsSplitTheBudget) {
  StringCache cache(8, 800);
  EXPECT_EQ(cache.num_shards(), 8u);
  EXPECT_EQ(cache.stats().capacity_bytes, 800u);
}

TEST(ShardedLruCacheTest, ConcurrentMixedOperationsAreSafe) {
  StringCache cache(8, 4096);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const int key = (t * 31 + i) % 97;
        if (i % 3 == 0) {
          cache.Put(key, Val(std::to_string(key)), 32);
        } else if (auto v = cache.Get(key)) {
          // A hit must always carry the value its key was stored with.
          EXPECT_EQ(**v, std::to_string(key));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes + 32 * 8);
}

TEST(ResultCacheKeyTest, CanonicalizationMergesSpellings) {
  Query a;
  a.terms = {7, 3, 3, 9};
  a.op = QueryOperator::kAnd;
  Query b;
  b.terms = {9, 7, 3};
  b.op = QueryOperator::kAnd;
  EXPECT_EQ(ResultCacheKey(CanonicalizeQuery(a), Algorithm::kNra, {}),
            ResultCacheKey(CanonicalizeQuery(b), Algorithm::kNra, {}));

  const Query canonical = CanonicalizeQuery(a);
  EXPECT_EQ(canonical.terms, (std::vector<TermId>{3, 7, 9}));
}

TEST(ResultCacheKeyTest, DistinctParametersGetDistinctKeys) {
  Query q;
  q.terms = {3, 7};
  q.op = QueryOperator::kAnd;
  const Query c = CanonicalizeQuery(q);
  const std::string base = ResultCacheKey(c, Algorithm::kNra, {});

  EXPECT_NE(ResultCacheKey(c, Algorithm::kSmj, {}), base);

  MineOptions k10;
  k10.k = 10;
  EXPECT_NE(ResultCacheKey(c, Algorithm::kNra, k10), base);

  MineOptions partial;
  partial.list_fraction = 0.5;
  EXPECT_NE(ResultCacheKey(c, Algorithm::kNra, partial), base);

  Query or_query = c;
  or_query.op = QueryOperator::kOr;
  EXPECT_NE(ResultCacheKey(or_query, Algorithm::kNra, {}), base);

  Query more_terms = c;
  more_terms.terms.push_back(11);
  EXPECT_NE(ResultCacheKey(more_terms, Algorithm::kNra, {}), base);

  // The SMJ construction fraction determines kSmj output and must key.
  EXPECT_NE(ResultCacheKey(c, Algorithm::kSmj, {}, 1.0),
            ResultCacheKey(c, Algorithm::kSmj, {}, 0.5));
}

TEST(ResultCacheKeyTest, PlannedRequestsKeyApartFromForcedOnes) {
  Query q;
  q.terms = {3, 7};
  q.op = QueryOperator::kAnd;
  const Query c = CanonicalizeQuery(q);
  const std::string planned = ResultCacheKey(c, std::nullopt, {});
  for (int a = 0; a < 6; ++a) {
    EXPECT_NE(ResultCacheKey(c, static_cast<Algorithm>(a), {}), planned) << a;
  }
  EXPECT_EQ(ResultCacheKey(c, std::nullopt, {}), planned);
  // The SMJ fraction keys planned requests too: the planner may pick SMJ.
  EXPECT_NE(ResultCacheKey(c, std::nullopt, {}, 1.0),
            ResultCacheKey(c, std::nullopt, {}, 0.5));
}

}  // namespace
}  // namespace phrasemine
