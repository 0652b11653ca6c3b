#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_index.h"
#include "service/cache.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::MakeSmallSyntheticCorpus;
using testing::MakeTinyCorpus;

ShardedEngine BuildSharded(std::size_t num_shards, std::size_t num_docs,
                           uint32_t min_df = 2) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine.extractor.min_df = min_df;
  return ShardedEngine::Build(MakeSmallSyntheticCorpus(num_docs),
                              std::move(options));
}

Query FacetQuery(const ShardedEngine& sharded) {
  return sharded.ParseQuery("topic:0 topic:1", QueryOperator::kOr).value();
}

TEST(ShardedServiceTest, MineSyncMatchesDirectShardedMine) {
  ShardedEngine sharded = BuildSharded(4, 300);
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&sharded, options);
  ASSERT_EQ(service.sharded(), &sharded);

  const Query query = FacetQuery(sharded);
  for (const Algorithm algorithm :
       {Algorithm::kExact, Algorithm::kSmj, Algorithm::kNra}) {
    const ShardedMineResult direct =
        sharded.Mine(CanonicalizeQuery(query), algorithm, MineOptions{});
    const ServiceReply reply =
        service.MineSync(ServiceRequest{query, MineOptions{}, algorithm});
    ASSERT_EQ(reply.result.phrases.size(), direct.result.phrases.size());
    EXPECT_EQ(reply.phrase_texts, direct.texts);
    for (std::size_t i = 0; i < direct.result.phrases.size(); ++i) {
      EXPECT_EQ(reply.result.phrases[i].score,
                direct.result.phrases[i].score);
    }
    EXPECT_EQ(reply.result.shard_epochs, sharded.epochs());
  }
}

TEST(ShardedServiceTest, DiskBackedFleetSurfacesIoCountersInStats) {
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine.extractor.min_df = 2;
  options.disk_backed = true;  // budget 0: every shard list spills
  ShardedEngine sharded = ShardedEngine::Build(MakeSmallSyntheticCorpus(300),
                                               std::move(options));
  PhraseServiceOptions service_options;
  service_options.pool.num_threads = 2;
  PhraseService service(&sharded, service_options);

  const Query query = FacetQuery(sharded);
  const ServiceReply reply = service.MineSync(
      ServiceRequest{query, MineOptions{}, Algorithm::kNraDisk});
  EXPECT_GT(reply.result.disk_io.blocks_read, 0u);
  EXPECT_GT(reply.result.disk_io.bytes, 0u);
  EXPECT_EQ(reply.result.shard_epochs.size(), 3u);

  // The executed mine's device counters accumulate into the service
  // stats (and render in ToString); an in-memory mine adds nothing.
  const ServiceStats after_disk = service.stats();
  EXPECT_EQ(after_disk.disk_io.blocks_read, reply.result.disk_io.blocks_read);
  EXPECT_EQ(after_disk.disk_io.bytes, reply.result.disk_io.bytes);
  EXPECT_NE(after_disk.ToString().find("disk tier:"), std::string::npos);

  (void)service.MineSync(ServiceRequest{query, MineOptions{}, Algorithm::kNra});
  EXPECT_EQ(service.stats().disk_io.blocks_read,
            after_disk.disk_io.blocks_read);
}

TEST(ShardedServiceTest, PlansAcrossShardsAndServesFromCache) {
  ShardedEngine sharded = BuildSharded(4, 300);
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&sharded, options);

  const ServiceRequest request{FacetQuery(sharded), MineOptions{}, {}};
  const ServiceReply first = service.MineSync(request);
  EXPECT_FALSE(first.result_cache_hit);
  EXPECT_NE(first.plan.reason.find("sharded(4)"), std::string::npos)
      << first.plan.reason;

  const ServiceReply second = service.MineSync(request);
  EXPECT_TRUE(second.result_cache_hit);
  EXPECT_EQ(second.phrase_texts, first.phrase_texts);
  ASSERT_EQ(second.result.phrases.size(), first.result.phrases.size());
  for (std::size_t i = 0; i < first.result.phrases.size(); ++i) {
    EXPECT_EQ(second.result.phrases[i].score, first.result.phrases[i].score);
  }
}

TEST(ShardedServiceTest, IngestMovesCompositeEpochAndInvalidatesByKey) {
  ShardedEngine sharded = BuildSharded(4, 300);
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  options.enable_auto_rebuild = false;  // deterministic epochs
  PhraseService service(&sharded, options);

  const ServiceRequest request{FacetQuery(sharded), MineOptions{}, {}};
  (void)service.MineSync(request);
  ASSERT_TRUE(service.MineSync(request).result_cache_hit);

  const std::vector<uint64_t> before = sharded.epochs();
  UpdateDoc doc;
  doc.tokens = {"fresh", "content", "for", "one", "shard"};
  const UpdateStats stats = service.Ingest(std::move(doc));
  EXPECT_GE(stats.epoch, 1u);

  // Exactly one shard (the insert's owner) advanced.
  const std::vector<uint64_t> after = sharded.epochs();
  std::size_t advanced = 0;
  for (std::size_t s = 0; s < after.size(); ++s) {
    if (after[s] != before[s]) ++advanced;
  }
  EXPECT_EQ(advanced, 1u);

  // The stale entry is unreachable under the new composite epoch vector.
  const ServiceReply refreshed = service.MineSync(request);
  EXPECT_FALSE(refreshed.result_cache_hit);
  EXPECT_EQ(refreshed.result.shard_epochs, after);
  EXPECT_GE(refreshed.epoch, stats.epoch);
}

TEST(ShardedServiceTest, FleetBuiltFromMonolithCorpusServesMonolithScores) {
  MiningEngineOptions engine_options;
  engine_options.extractor.min_df = 2;
  MiningEngine engine = MiningEngine::Build(MakeTinyCorpus(), engine_options);

  // A fleet over a copy of the engine's base corpus, inheriting its build
  // options, serves every query through the scatter-gather path.
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.engine = engine.options();
  ShardedEngine sharded =
      ShardedEngine::Build(engine.CloneBaseCorpus(), sharded_options);
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&sharded, options);
  ASSERT_EQ(service.sharded(), &sharded);
  EXPECT_EQ(service.sharded()->num_shards(), 3u);

  const Query query =
      engine.ParseQuery("query optimization", QueryOperator::kAnd).value();
  const MineResult mono = engine.Mine(query, Algorithm::kExact,
                                      MineOptions{.k = 5});
  const ServiceReply reply = service.MineSync(
      ServiceRequest{query, MineOptions{.k = 5}, Algorithm::kExact});
  ASSERT_EQ(reply.result.phrases.size(), mono.phrases.size());
  // Scores must match rank by rank; texts only up to equal-score tie
  // order (the monolithic collector breaks ties by PhraseId, the merge
  // by text), so each reply text must score what its rank says.
  const MineResult mono_all = engine.Mine(query, Algorithm::kExact,
                                          MineOptions{.k = 100000});
  std::map<std::string, std::set<double>> truth;
  for (const MinedPhrase& p : mono_all.phrases) {
    truth[engine.PhraseText(p.phrase)].insert(p.score);
  }
  for (std::size_t i = 0; i < mono.phrases.size(); ++i) {
    EXPECT_EQ(reply.result.phrases[i].score, mono.phrases[i].score);
    const auto it = truth.find(reply.phrase_texts[i]);
    ASSERT_NE(it, truth.end()) << reply.phrase_texts[i];
    EXPECT_TRUE(it->second.contains(reply.result.phrases[i].score))
        << reply.phrase_texts[i];
  }
}

TEST(ShardedServiceTest, SurvivesDictionaryRefresh) {
  // A dictionary refresh swaps the whole shard fleet; the service must
  // keep planning and serving afterwards (it gathers per-shard planner
  // inputs through the engine's fleet lock instead of caching per-shard
  // planners that would dangle).
  ShardedEngine sharded = BuildSharded(3, 200);
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  options.enable_auto_rebuild = false;
  PhraseService service(&sharded, options);

  const ServiceRequest request{FacetQuery(sharded), MineOptions{}, {}};
  const ServiceReply before = service.MineSync(request);
  ASSERT_FALSE(before.result.phrases.empty());

  UpdateDoc doc;
  doc.tokens = {"refresh", "survivor", "phrase", "refresh", "survivor",
                "phrase"};
  (void)service.Ingest(std::move(doc));
  sharded.RefreshDictionary();

  const ServiceReply after = service.MineSync(request);
  EXPECT_FALSE(after.result_cache_hit);  // epochs advanced past the swap
  EXPECT_GT(after.epoch, before.epoch);
  // The refresh reassigns PhraseIds (extraction order over the grown
  // corpus), so equal-score ties may reorder; the score sequence itself
  // is a pure function of the unchanged supports.
  ASSERT_EQ(after.result.phrases.size(), before.result.phrases.size());
  for (std::size_t i = 0; i < after.result.phrases.size(); ++i) {
    EXPECT_EQ(after.result.phrases[i].score, before.result.phrases[i].score);
    EXPECT_FALSE(after.phrase_texts[i].empty());
  }
  // engine() re-resolves shard 0 after the swap.
  EXPECT_EQ(&service.engine(), &sharded.shard(0));
}

TEST(ShardedServiceTest, CallerDeltaIsIgnoredNotFatal) {
  ShardedEngine sharded = BuildSharded(2, 150);
  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  PhraseService service(&sharded, options);

  DeltaIndex external(sharded.shard(0).dict());
  ServiceRequest request{FacetQuery(sharded), MineOptions{}, {}};
  request.options.delta = &external;
  const ServiceReply reply = service.MineSync(request);  // must not abort
  EXPECT_NE(reply.plan.reason.find("caller delta ignored"),
            std::string::npos)
      << reply.plan.reason;
  EXPECT_FALSE(reply.result_cache_hit);
}

TEST(ShardedServiceTest, AutoRebuildTargetsOnlyRecommendedShards) {
  // All inserts land in shard 0: global insert ids are >= the base corpus
  // size, so only shard 0 crosses its rebuild threshold.
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.engine.extractor.min_df = 2;
  sharded_options.engine.rebuild_threshold = 0.05;
  const std::size_t base_docs = 120;
  sharded_options.partitioner = [base_docs](DocId g, std::size_t n) {
    return g >= base_docs ? 0u : static_cast<uint32_t>(g % n);
  };
  ShardedEngine sharded = ShardedEngine::Build(
      MakeSmallSyntheticCorpus(base_docs), std::move(sharded_options));
  const std::vector<uint64_t> generations_before = {
      sharded.shard(0).list_generation(), sharded.shard(1).list_generation(),
      sharded.shard(2).list_generation()};

  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&sharded, options);

  for (int i = 0; i < 30; ++i) {
    UpdateDoc doc;
    doc.tokens = {"rebuild", "pressure", "doc", std::to_string(i)};
    (void)service.Ingest(std::move(doc));
  }
  // The rebuild runs on the service pool; wait for it to land.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.stats().rebuilds == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(service.stats().rebuilds, 1u);
  EXPECT_GT(sharded.shard(0).list_generation(), generations_before[0]);
  EXPECT_EQ(sharded.shard(1).list_generation(), generations_before[1]);
  EXPECT_EQ(sharded.shard(2).list_generation(), generations_before[2]);
}

}  // namespace
}  // namespace phrasemine
