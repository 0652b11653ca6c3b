#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/disk_lists.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/query_gen.h"
#include "obs/trace.h"
#include "storage/index_file.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::MakeSmallSyntheticCorpus;
using testing::MakeTinyCorpus;

MiningEngineOptions EngineOptions(uint32_t min_df) {
  MiningEngineOptions options;
  options.extractor.min_df = min_df;
  return options;
}

ShardedEngine BuildSharded(Corpus corpus, std::size_t num_shards,
                           uint32_t min_df,
                           ShardedEngineOptions extra = {}) {
  ShardedEngineOptions options = std::move(extra);
  options.num_shards = num_shards;
  options.engine = EngineOptions(min_df);
  return ShardedEngine::Build(std::move(corpus), std::move(options));
}

/// Harvests a deterministic differential workload from the monolithic
/// engine (term ids are portable: every shard vocabulary is a copy of the
/// corpus vocabulary the monolithic engine holds too).
std::vector<Query> HarvestQueries(const MiningEngine& mono,
                                  std::size_t count) {
  QueryGenOptions options;
  options.num_queries = count;
  options.min_term_df = 8;
  options.min_pairwise_codf = 3;
  options.min_and_matches = 3;
  return QuerySetGenerator(options).Generate(mono.dict(), mono.inverted(),
                                             mono.corpus().size());
}

/// Asserts the sharded top-k equals the monolithic top-k: identical score
/// sequence, and identical phrase sets within every equal-score group.
/// The two sides break exact ties differently (the monolithic collector
/// prefers smaller shard-local PhraseIds, which do not exist globally;
/// the merge orders ties by text), so a tie group that straddles the
/// k-boundary is compared as a subset of the monolithic group instead.
void ExpectEquivalentTopK(MiningEngine& mono, ShardedEngine& sharded,
                          const Query& query, Algorithm algorithm,
                          const MineOptions& options) {
  MineOptions extended = options;
  extended.k = options.k + 200;  // headroom so boundary tie groups resolve
  const MineResult mono_ext = mono.Mine(query, algorithm, extended);
  const ShardedMineResult merged = sharded.Mine(query, algorithm, options);

  const std::size_t expect =
      std::min(options.k, mono_ext.phrases.size());
  ASSERT_EQ(merged.result.phrases.size(), expect);
  ASSERT_EQ(merged.texts.size(), expect);
  if (expect == 0) return;

  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_EQ(merged.result.phrases[i].score, mono_ext.phrases[i].score)
        << "rank " << i << ": sharded \"" << merged.texts[i]
        << "\" vs mono \"" << mono.PhraseText(mono_ext.phrases[i].phrase)
        << "\"";
  }

  std::map<double, std::multiset<std::string>> mono_groups;
  for (const MinedPhrase& p : mono_ext.phrases) {
    mono_groups[p.score].insert(mono.PhraseText(p.phrase));
  }
  std::map<double, std::multiset<std::string>> merged_groups;
  for (std::size_t i = 0; i < expect; ++i) {
    merged_groups[merged.result.phrases[i].score].insert(merged.texts[i]);
  }
  const double boundary = merged.result.phrases.back().score;
  for (const auto& [score, texts] : merged_groups) {
    const auto it = mono_groups.find(score);
    ASSERT_NE(it, mono_groups.end()) << "score " << score;
    if (score == boundary) {
      // The k-cut may split this group differently on the two sides.
      for (const std::string& text : texts) {
        EXPECT_TRUE(it->second.contains(text))
            << "boundary phrase \"" << text << "\" not in mono group";
      }
    } else {
      EXPECT_EQ(texts, it->second) << "at score " << score;
    }
  }
}

/// A batch that re-inserts copies of shard 0's first `count` documents and
/// deletes two base documents: enough churn for a pending overlay to move
/// dfs and co-occurrence counts on every shard.
UpdateBatch CopyDocsBatch(const MiningEngine& shard0, DocId count) {
  UpdateBatch batch;
  for (DocId d = 0; d < count; ++d) {
    UpdateDoc doc;
    const Document& src = shard0.corpus().doc(d % shard0.corpus().size());
    for (TermId t : src.tokens) {
      doc.tokens.push_back(std::string(shard0.corpus().vocab().TermText(t)));
    }
    batch.inserts.push_back(std::move(doc));
  }
  batch.deletes = {2, 4};
  return batch;
}

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kExact, Algorithm::kGm,  Algorithm::kSimitsis,
    Algorithm::kNra,   Algorithm::kNraDisk, Algorithm::kSmj};

// --- Differential: merged Exact/SMJ == monolithic, randomized corpora -------

TEST(ShardedEngineTest, DifferentialExactAndSmjMatchMonolith) {
  for (const std::size_t num_docs : {400u, 900u}) {
    MiningEngine mono =
        MiningEngine::Build(MakeSmallSyntheticCorpus(num_docs),
                            EngineOptions(/*min_df=*/3));
    ShardedEngine sharded =
        BuildSharded(MakeSmallSyntheticCorpus(num_docs), /*num_shards=*/4,
                     /*min_df=*/3);
    const std::vector<Query> queries = HarvestQueries(mono, 10);
    ASSERT_FALSE(queries.empty());
    for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
      for (const Query& base : queries) {
        for (const QueryOperator op :
             {QueryOperator::kAnd, QueryOperator::kOr}) {
          Query query = base;
          query.op = op;
          ExpectEquivalentTopK(mono, sharded, query, algorithm,
                               MineOptions{.k = 5});
        }
      }
    }
  }
}

// --- Threshold exchange ------------------------------------------------------

/// The exchange must be a pure fill-work optimization: ranked output
/// bitwise identical with the round on and off (and hence still identical
/// to the monolithic engine, which the differential test above already
/// pins), while at 4 shards it actually prunes candidates and saves fill
/// slots somewhere in the workload.
TEST(ShardedEngineTest, ThresholdExchangePreservesResultsAndPrunesFill) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(900),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(900), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 8);
  ASSERT_FALSE(queries.empty());

  uint64_t total_pruned = 0;
  std::size_t slots_on = 0;
  std::size_t slots_off = 0;
  for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
    for (const Query& base : queries) {
      for (const QueryOperator op :
           {QueryOperator::kAnd, QueryOperator::kOr}) {
        Query query = base;
        query.op = op;
        sharded.SetThresholdExchange(false);
        const ShardedMineResult off =
            sharded.Mine(query, algorithm, MineOptions{.k = 5});
        EXPECT_EQ(off.result.candidates_pruned, 0u);
        sharded.SetThresholdExchange(true);
        const ShardedMineResult on =
            sharded.Mine(query, algorithm, MineOptions{.k = 5});

        ASSERT_EQ(on.result.phrases.size(), off.result.phrases.size());
        for (std::size_t i = 0; i < on.result.phrases.size(); ++i) {
          EXPECT_EQ(on.result.phrases[i].phrase, off.result.phrases[i].phrase);
          EXPECT_EQ(on.result.phrases[i].score, off.result.phrases[i].score);
        }
        EXPECT_EQ(on.candidates, off.candidates);
        EXPECT_LE(on.fill_slots, off.fill_slots);
        total_pruned += on.result.candidates_pruned;
        slots_on += on.fill_slots;
        slots_off += off.fill_slots;
      }
    }
  }
  // The workload as a whole must show real pruning (AND queries drop
  // cross-shard-only candidates; fully-reported floors prune the rest).
  EXPECT_GT(total_pruned, 0u);
  EXPECT_LT(slots_on, slots_off);
}

/// Same invariant under a pending delta overlay: the exchange reads the
/// delta-corrected scatter supports, so the on/off results must stay
/// identical after updates too.
TEST(ShardedEngineTest, ThresholdExchangeExactUnderDelta) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 5);
  ASSERT_FALSE(queries.empty());

  (void)sharded.ApplyUpdate(CopyDocsBatch(sharded.shard(0), 20));

  for (const Query& base : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query query = base;
      query.op = op;
      sharded.SetThresholdExchange(false);
      const ShardedMineResult off =
          sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 5});
      sharded.SetThresholdExchange(true);
      const ShardedMineResult on =
          sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 5});
      EXPECT_EQ(on.result.guarantee, UpdateGuarantee::kExactUnderDelta);
      ASSERT_EQ(on.result.phrases.size(), off.result.phrases.size());
      for (std::size_t i = 0; i < on.result.phrases.size(); ++i) {
        EXPECT_EQ(on.result.phrases[i].phrase, off.result.phrases[i].phrase);
        EXPECT_EQ(on.result.phrases[i].score, off.result.phrases[i].score);
      }
    }
  }
}

// --- Merge layout invariance -------------------------------------------------

/// Pins the merge bit for bit: one FNV-1a digest over every ranked phrase
/// id and score bit pattern plus the merge's work counters (union size,
/// fill slots, pruned candidates), across all six algorithms x AND/OR,
/// fresh and under a pending overlay. A change to the scatter, union,
/// fill or gather data layout must leave the digest where it is.
TEST(ShardedEngineTest, MergeOutputIsPinned) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(600),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(600), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());

  std::vector<uint64_t> words;
  auto mine_all = [&] {
    for (const Algorithm algorithm : kAllAlgorithms) {
      for (const Query& base : queries) {
        for (const QueryOperator op :
             {QueryOperator::kAnd, QueryOperator::kOr}) {
          Query query = base;
          query.op = op;
          const ShardedMineResult merged =
              sharded.Mine(query, algorithm, MineOptions{.k = 5});
          ASSERT_TRUE(merged.result.status.ok());
          for (const MinedPhrase& p : merged.result.phrases) {
            words.push_back(p.phrase);
            words.push_back(std::bit_cast<uint64_t>(p.score));
          }
          words.push_back(merged.candidates);
          words.push_back(merged.fill_slots);
          words.push_back(merged.result.candidates_pruned);
        }
      }
    }
  };
  mine_all();
  (void)sharded.ApplyUpdate(CopyDocsBatch(sharded.shard(0), 20));
  mine_all();
  const uint64_t digest =
      Fnv1a64(reinterpret_cast<const uint8_t*>(words.data()),
              words.size() * sizeof(uint64_t));
  EXPECT_EQ(digest, 0xdc31309cbcb8755eull) << std::hex << digest;
}

/// At an SMJ fraction below 1 the shards' cached id-ordered lists are
/// truncated, so the list scatter and the list fill read full-fraction
/// id-ordered lists packed on demand from the score-ordered lists
/// (MiningEngine::FullIdOrderedListLocked). Under a pending overlay those
/// mines must reproduce the cached full-fraction ones bitwise.
TEST(ShardedEngineTest, ScoreOrderedFallbacksMatchUnderOverlay) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 5);
  ASSERT_FALSE(queries.empty());
  (void)sharded.ApplyUpdate(CopyDocsBatch(sharded.shard(0), 20));

  auto mine_all = [&] {
    std::vector<ShardedMineResult> out;
    for (const Algorithm algorithm : {Algorithm::kSmj, Algorithm::kNra}) {
      for (const Query& base : queries) {
        for (const QueryOperator op :
             {QueryOperator::kAnd, QueryOperator::kOr}) {
          Query query = base;
          query.op = op;
          out.push_back(sharded.Mine(query, algorithm, MineOptions{.k = 5}));
        }
      }
    }
    return out;
  };
  const std::vector<ShardedMineResult> full = mine_all();
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    sharded.shard(s).SetSmjFraction(0.5);
  }
  const std::vector<ShardedMineResult> scanned = mine_all();
  ASSERT_EQ(full.size(), scanned.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].result.guarantee, scanned[i].result.guarantee);
    EXPECT_NE(full[i].result.guarantee, UpdateGuarantee::kFresh);
    EXPECT_EQ(testing::RankedSignature(full[i].result),
              testing::RankedSignature(scanned[i].result))
        << "mine " << i;
    EXPECT_EQ(full[i].candidates, scanned[i].candidates) << "mine " << i;
    EXPECT_EQ(full[i].fill_slots, scanned[i].fill_slots) << "mine " << i;
  }
}

// --- Scatter-gather edge cases ----------------------------------------------

TEST(ShardedEngineTest, EmptyShardsAreHarmless) {
  // Everything lands in shard 0; shards 1..3 stay completely empty.
  ShardedEngineOptions extra;
  extra.partitioner = [](DocId, std::size_t) { return 0u; };
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/2));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/4, /*min_df=*/2,
                   std::move(extra));

  const Query query = mono.ParseQuery("query optimization",
                                      QueryOperator::kAnd).value();
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kExact,
                       MineOptions{.k = 5});
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 5});
  // The approximate paths must tolerate empty shards too.
  const ShardedMineResult nra =
      sharded.Mine(query, Algorithm::kNra, MineOptions{.k = 5});
  EXPECT_FALSE(nra.exact_merge);
  EXPECT_FALSE(nra.result.phrases.empty());
}

TEST(ShardedEngineTest, KLargerThanTotalResults) {
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/2));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/4, /*min_df=*/2);
  const Query query = mono.ParseQuery("query optimization",
                                      QueryOperator::kAnd).value();
  const MineOptions options{.k = 500};
  const MineResult mono_result = mono.Mine(query, Algorithm::kExact, options);
  const ShardedMineResult merged =
      sharded.Mine(query, Algorithm::kExact, options);
  // Fewer qualifying phrases than k: both sides return everything.
  EXPECT_LT(mono_result.phrases.size(), options.k);
  EXPECT_EQ(merged.result.phrases.size(), mono_result.phrases.size());
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kExact, options);
}

TEST(ShardedEngineTest, AllResultsInOneShard) {
  // The matching documents (0..3 carry "query optimization") all land in
  // shard 2; the other shards only contribute global df denominators.
  ShardedEngineOptions extra;
  extra.partitioner = [](DocId g, std::size_t n) {
    return g < 4 ? 2u : static_cast<uint32_t>(g % n);
  };
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/2));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/4, /*min_df=*/2,
                   std::move(extra));
  const Query query = mono.ParseQuery("query optimization",
                                      QueryOperator::kAnd).value();
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kExact,
                       MineOptions{.k = 8});
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});
}

TEST(ShardedEngineTest, TieBreakDeterministicAcrossShardCounts) {
  // The exhaustive merge recomputes global supports, so the merged output
  // must be a pure function of the corpus -- identical across shard
  // counts and across repeated runs (ties ordered by text).
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine two =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/2,
                   /*min_df=*/3);
  ShardedEngine four =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());
  for (const Query& query : queries) {
    for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
      const ShardedMineResult a =
          two.Mine(query, algorithm, MineOptions{.k = 5});
      const ShardedMineResult b =
          four.Mine(query, algorithm, MineOptions{.k = 5});
      const ShardedMineResult c =
          four.Mine(query, algorithm, MineOptions{.k = 5});
      EXPECT_EQ(a.texts, b.texts);
      EXPECT_EQ(b.texts, c.texts);
      ASSERT_EQ(a.result.phrases.size(), b.result.phrases.size());
      for (std::size_t i = 0; i < a.result.phrases.size(); ++i) {
        EXPECT_EQ(a.result.phrases[i].score, b.result.phrases[i].score);
      }
    }
  }
}

// --- Approximate paths: bounded recall, exact scores ------------------------

TEST(ShardedEngineTest, TopKPathsReportExactGlobalScores) {
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                          EngineOptions(/*min_df=*/3));
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(500), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());
  for (const Query& query : queries) {
    // Ground truth: every phrase's exact global count-based score. Texts
    // come from the fixed-slot phrase file, so two long phrases can
    // render identically -- the truth maps therefore hold score *sets*.
    const MineResult exact =
        mono.Mine(query, Algorithm::kExact, MineOptions{.k = 100000});
    std::map<std::string, std::set<double>> truth;
    for (const MinedPhrase& p : exact.phrases) {
      truth[mono.PhraseText(p.phrase)].insert(p.score);
    }
    const ShardedMineResult gm =
        sharded.Mine(query, Algorithm::kGm, MineOptions{.k = 5});
    EXPECT_FALSE(gm.exact_merge);
    for (std::size_t i = 0; i < gm.texts.size(); ++i) {
      const auto it = truth.find(gm.texts[i]);
      ASSERT_NE(it, truth.end()) << gm.texts[i];
      EXPECT_TRUE(it->second.contains(gm.result.phrases[i].score))
          << gm.texts[i];
    }

    // List path: NRA candidates carry the exact merged list score -- the
    // score exhaustive sharded SMJ computes for the same phrase.
    const ShardedMineResult smj_all =
        sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 100000});
    std::map<std::string, std::set<double>> list_truth;
    for (std::size_t i = 0; i < smj_all.texts.size(); ++i) {
      list_truth[smj_all.texts[i]].insert(smj_all.result.phrases[i].score);
    }
    const ShardedMineResult nra =
        sharded.Mine(query, Algorithm::kNra, MineOptions{.k = 5});
    for (std::size_t i = 0; i < nra.texts.size(); ++i) {
      const auto it = list_truth.find(nra.texts[i]);
      ASSERT_NE(it, list_truth.end()) << nra.texts[i];
      EXPECT_TRUE(it->second.contains(nra.result.phrases[i].score))
          << nra.texts[i];
    }
  }
}

// --- Live updates ------------------------------------------------------------

TEST(ShardedEngineTest, UpdatesRouteToOwningShardsAndEpochsCompose) {
  // min_df 1 on both sides makes the phrase sets identical, so sharded
  // SMJ under a delta overlay must match the monolithic engine exactly.
  MiningEngine mono =
      MiningEngine::Build(MakeTinyCorpus(), EngineOptions(/*min_df=*/1));
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/3, /*min_df=*/1);

  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{
      {"query", "optimization", "beats", "guessing"}, {}});
  batch.inserts.push_back(UpdateDoc{
      {"systems", "kernel", "query", "optimization"}, {}});
  batch.deletes.push_back(1);

  const UpdateStats mono_stats = mono.ApplyUpdate(batch);
  const ShardedUpdateStats stats = sharded.ApplyUpdate(batch);
  EXPECT_EQ(stats.total.batch_inserts, mono_stats.batch_inserts);
  EXPECT_EQ(stats.total.batch_deletes, mono_stats.batch_deletes);
  EXPECT_EQ(stats.total.live_docs, mono_stats.live_docs);
  EXPECT_EQ(stats.epochs.size(), 3u);
  uint64_t sum = 0;
  for (uint64_t e : stats.epochs) sum += e;
  EXPECT_EQ(stats.total.epoch, sum);
  EXPECT_GE(sum, 1u);

  const Query query =
      mono.ParseQuery("query optimization", QueryOperator::kAnd).value();
  const ShardedMineResult merged =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 8});
  EXPECT_EQ(merged.result.guarantee, UpdateGuarantee::kExactUnderDelta);
  EXPECT_EQ(merged.result.shard_epochs, sharded.epochs());
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});

  // Shard-by-shard rebuild: freshness returns one shard at a time, and
  // afterwards the merged output matches a monolithic rebuild.
  mono.Rebuild();
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    sharded.RebuildShard(s);
  }
  const ShardedMineResult rebuilt =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 8});
  EXPECT_EQ(rebuilt.result.guarantee, UpdateGuarantee::kFresh);
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});

  // Deleting an ingested document by its global id (>= base size).
  UpdateBatch del;
  del.deletes.push_back(8);  // first insert above
  const ShardedUpdateStats del_stats = sharded.ApplyUpdate(del);
  EXPECT_EQ(del_stats.total.batch_deletes, 1u);
  UpdateBatch mono_del;
  // After the monolithic rebuild the first insert (doc id 8 pre-rebuild)
  // compacted to id 7 (doc 1 was deleted).
  mono_del.deletes.push_back(7);
  mono.ApplyUpdate(mono_del);
  ExpectEquivalentTopK(mono, sharded, query, Algorithm::kSmj,
                       MineOptions{.k = 8});
}

TEST(ShardedEngineTest, RefreshDictionaryAdmitsUpdateBornPhrases) {
  ShardedEngine sharded =
      BuildSharded(MakeTinyCorpus(), /*num_shards=*/3, /*min_df=*/2);
  const std::size_t set_before = sharded.phrase_set().size();

  // Two inserted documents establish a brand-new collocation; the frozen
  // phrase set cannot know it, so shard rebuilds alone never admit it.
  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{{"brand", "new", "collocation"}, {}});
  batch.inserts.push_back(UpdateDoc{{"brand", "new", "collocation"}, {}});
  (void)sharded.ApplyUpdate(batch);
  const uint64_t epoch_before = sharded.epoch();

  const Query query =
      sharded.ParseQuery("brand new", QueryOperator::kAnd).value();
  const ShardedMineResult stale =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 10});
  for (const std::string& text : stale.texts) {
    EXPECT_NE(text, "brand new");
  }

  sharded.RefreshDictionary();

  EXPECT_GT(sharded.phrase_set().size(), set_before);
  // Epochs continue strictly monotonically across the fleet swap, so no
  // epoch-vector cache key from before the refresh stays reachable.
  EXPECT_GT(sharded.epoch(), epoch_before);
  const ShardedMineResult fresh =
      sharded.Mine(query, Algorithm::kSmj, MineOptions{.k = 10});
  EXPECT_EQ(fresh.result.guarantee, UpdateGuarantee::kFresh);
  bool found = false;
  for (const std::string& text : fresh.texts) found |= text == "brand new";
  EXPECT_TRUE(found);
}

// --- Concurrency: ingest storm (TSan scope) ----------------------------------

// --- Per-shard disk tier -----------------------------------------------------

using testing::RankedSignature;

TEST(ShardedEngineTest, DiskTierDifferentialAcrossResidentFractions) {
  // Same corpus + same shard count: kNraDisk ranked output must be
  // bitwise identical at every resident budget (0, half, all) and equal
  // to in-memory kNra on the same fleet -- placement moves modeled cost,
  // never contents -- while the per-shard I/O counters shrink toward
  // zero as the budget pins more of each shard's lists.
  ShardedEngineOptions extra;
  extra.disk_backed = true;
  extra.disk_budget_per_shard = 0;
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(700), /*num_shards=*/4,
                   /*min_df=*/3, std::move(extra));
  MiningEngine mono = MiningEngine::Build(MakeSmallSyntheticCorpus(700),
                                          EngineOptions(/*min_df=*/3));
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());

  // Warm every shard's lists, then size the budget off the largest shard.
  for (const Query& q : queries) {
    (void)sharded.Mine(q, Algorithm::kNraDisk, MineOptions{.k = 1});
  }
  uint64_t max_shard_bytes = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    max_shard_bytes = std::max<uint64_t>(
        max_shard_bytes, sharded.shard(s).word_lists().InMemoryBytes());
  }
  ASSERT_GT(max_shard_bytes, 0u);

  for (const Query& base : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query query = base;
      query.op = op;
      const MineOptions options{.k = 5};

      sharded.SetDiskBudgetPerShard(0);
      const ShardedMineResult spilled =
          sharded.Mine(query, Algorithm::kNraDisk, options);
      sharded.SetDiskBudgetPerShard(max_shard_bytes / 2);
      const ShardedMineResult half =
          sharded.Mine(query, Algorithm::kNraDisk, options);
      sharded.SetDiskBudgetPerShard(max_shard_bytes);
      const ShardedMineResult resident =
          sharded.Mine(query, Algorithm::kNraDisk, options);
      const ShardedMineResult in_memory =
          sharded.Mine(query, Algorithm::kNra, options);

      EXPECT_EQ(RankedSignature(spilled.result), RankedSignature(half.result));
      EXPECT_EQ(RankedSignature(spilled.result), RankedSignature(resident.result));
      EXPECT_EQ(RankedSignature(spilled.result), RankedSignature(in_memory.result));

      // Per-device counters: one entry per shard, aggregates sum them.
      ASSERT_EQ(spilled.shard_disk_io.size(), sharded.num_shards());
      DiskIoStats summed;
      for (const DiskIoStats& io : spilled.shard_disk_io) summed += io;
      EXPECT_EQ(summed.blocks_read, spilled.result.disk_io.blocks_read);
      EXPECT_EQ(summed.bytes, spilled.result.disk_io.bytes);
      // Fully pinned lists and no scatter-side phrase lookups: the
      // all-resident fleet charges nothing at all.
      EXPECT_EQ(resident.result.disk_io.blocks_read, 0u);
      EXPECT_DOUBLE_EQ(resident.result.disk_ms, 0.0);
      EXPECT_LE(half.result.disk_io.bytes, spilled.result.disk_io.bytes);
      EXPECT_EQ(in_memory.result.disk_io.blocks_read, 0u);
    }
  }
}

TEST(ShardedEngineTest, DiskTierSpillPlacementDeterministicPerShard) {
  // Same corpus + same budget => identical per-shard placement across
  // two independently built fleets (the satellite determinism contract:
  // placement is a pure function of corpus, budget and built lists).
  ShardedEngineOptions extra_a;
  extra_a.disk_backed = true;
  ShardedEngineOptions extra_b;
  extra_b.disk_backed = true;
  ShardedEngine a = BuildSharded(MakeSmallSyntheticCorpus(500),
                                 /*num_shards=*/3, /*min_df=*/3,
                                 std::move(extra_a));
  ShardedEngine b = BuildSharded(MakeSmallSyntheticCorpus(500),
                                 /*num_shards=*/3, /*min_df=*/3,
                                 std::move(extra_b));
  MiningEngine mono = MiningEngine::Build(MakeSmallSyntheticCorpus(500),
                                          EngineOptions(/*min_df=*/3));
  const std::vector<Query> queries = HarvestQueries(mono, 4);
  ASSERT_FALSE(queries.empty());
  for (const Query& q : queries) {
    (void)a.Mine(q, Algorithm::kNraDisk, MineOptions{.k = 1});
    (void)b.Mine(q, Algorithm::kNraDisk, MineOptions{.k = 1});
  }
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    const uint64_t budget = a.shard(s).word_lists().InMemoryBytes() / 2;
    const auto place_a = DiskResidentLists::ResidentSet(
        a.shard(s).word_lists(), a.shard(s).inverted(), budget);
    const auto place_b = DiskResidentLists::ResidentSet(
        b.shard(s).word_lists(), b.shard(s).inverted(), budget);
    EXPECT_EQ(place_a, place_b) << "shard " << s;
  }
}

TEST(ShardedEngineTest, ConcurrentShardIngestStorm) {
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(200), /*num_shards=*/4,
                   /*min_df=*/2);
  const Query query =
      sharded.ParseQuery("topic:0 topic:1", QueryOperator::kOr).value();

  std::atomic<bool> stop{false};
  std::atomic<int> mined{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&sharded, &stop, w] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        UpdateBatch batch;
        UpdateDoc doc;
        doc.tokens = {"storm", "doc", w == 0 ? "alpha" : "beta",
                      std::to_string(i++)};
        batch.inserts.push_back(std::move(doc));
        if (i % 5 == 0) {
          batch.deletes.push_back(static_cast<DocId>(200 + i - 3));
        }
        (void)sharded.ApplyUpdate(batch);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&sharded, &query, &stop, &mined, r] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Algorithm algorithm =
            (r + mined.load(std::memory_order_relaxed)) % 2 == 0
                ? Algorithm::kSmj
                : Algorithm::kNra;
        const ShardedMineResult merged =
            sharded.Mine(query, algorithm, MineOptions{.k = 5});
        // Composite epoch sum never moves backwards for a single reader.
        EXPECT_GE(merged.result.epoch, last_epoch);
        last_epoch = merged.result.epoch;
        mined.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread rebuilder([&sharded, &stop] {
    std::size_t s = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sharded.RebuildShard(s % sharded.num_shards());
      ++s;
      // Back-to-back rebuilds with zero gap are adversarial (every mine
      // would race a structure swap); a short breather models a sane
      // rebuild cadence while still exercising the swap path heavily.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  while (mined.load() < 30) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  rebuilder.join();
  EXPECT_GE(sharded.epoch(), 1u);
}

TEST(ShardedEngineTest, AdoptedFleetPassesThroughToItsEngine) {
  MiningEngine engine = testing::MakeSmallEngine(200);
  MiningEngine reference = testing::MakeSmallEngine(200);
  ShardedEngine adopted = ShardedEngine::Adopt(&engine);
  EXPECT_EQ(adopted.num_shards(), 1u);
  EXPECT_EQ(&adopted.shard(0), &engine);
  EXPECT_EQ(adopted.smj_fraction(), engine.smj_fraction());

  // Every algorithm hands back the engine's own mine, bitwise, with the
  // one-entry epoch vector filled.
  const Query query = adopted.ParseQuery("topic:0", QueryOperator::kOr).value();
  for (const Algorithm algorithm : kAllAlgorithms) {
    const ShardedMineResult mined = adopted.Mine(query, algorithm);
    EXPECT_EQ(testing::RankedSignature(mined.result),
              testing::RankedSignature(reference.Mine(query, algorithm)))
        << AlgorithmName(algorithm);
    EXPECT_EQ(mined.result.shard_epochs, std::vector<uint64_t>{0});
    EXPECT_TRUE(mined.texts.empty());
  }

  // The passthrough is keyed on adoption, not on the shard count: a
  // built one-shard fleet still runs the scatter-gather merge.
  MineOptions traced;
  traced.trace = true;
  ShardedEngine built_one =
      ShardedEngine::Build(testing::MakeSmallSyntheticCorpus(200),
                           ShardedEngineOptions{.num_shards = 1});
  EXPECT_EQ(built_one.Mine(query, Algorithm::kSmj, traced).result.trace->name,
            "mine:sharded");
  EXPECT_NE(adopted.Mine(query, Algorithm::kSmj, traced).result.trace->name,
            "mine:sharded");

  // Direct engine updates and rebuilds reach the fleet listener, wrapped
  // as one-entry events; delete ids keep the engine's own numbering.
  std::vector<ShardedUpdateEvent> events;
  adopted.SetUpdateListener(
      [&events](const ShardedUpdateEvent& ev) { events.push_back(ev); });
  UpdateBatch batch;
  batch.deletes = {0};
  engine.ApplyUpdate(batch);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].epoch, 1u);
  ASSERT_EQ(events[0].shards.size(), 1u);
  EXPECT_EQ(events[0].shards[0].epoch, 1u);
  EXPECT_FALSE(events[0].rebuilt);
  const ShardedUpdateStats stats = adopted.ApplyUpdate(batch);  // no-op
  EXPECT_EQ(stats.total.batch_deletes, 0u);
  EXPECT_EQ(stats.epochs, std::vector<uint64_t>{2});
  EXPECT_EQ(adopted.update_stats().live_docs, 199u);
  engine.Rebuild();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[2].rebuilt);
  EXPECT_EQ(adopted.epochs(), std::vector<uint64_t>{engine.epoch()});
  adopted.SetUpdateListener(nullptr);
  engine.ApplyUpdate(batch);
  EXPECT_EQ(events.size(), 3u);
}

TEST(ShardedEngineTest, AdoptedFleetRefusesToDestroyItsEngine) {
  MiningEngine engine = testing::MakeSmallEngine(120);
  ShardedEngine adopted = ShardedEngine::Adopt(&engine);
  EXPECT_EQ(adopted.RefreshDictionary().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(adopted.SaveToFiles("adopted_fleet_refused").code(),
            StatusCode::kFailedPrecondition);
  // The borrowed engine is untouched and still serves through the fleet.
  EXPECT_EQ(&adopted.shard(0), &engine);
  const Query query =
      adopted.ParseQuery("topic:0", QueryOperator::kAnd).value();
  EXPECT_EQ(
      testing::RankedSignature(adopted.Mine(query, Algorithm::kSmj).result),
      testing::RankedSignature(engine.Mine(query, Algorithm::kSmj)));
}

}  // namespace
}  // namespace phrasemine
