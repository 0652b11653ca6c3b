#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
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
#include "phrase/phrase_extractor.h"
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

// --- Fleet-wide df table -----------------------------------------------------

/// Asserts the fleet's df table is the per-phrase sum of its shards' own
/// dictionary dfs over the whole global phrase set.
void ExpectTableIsShardSum(const ShardedEngine& sharded) {
  const auto table = sharded.base_df_table();
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->size(), sharded.phrase_set().size());
  for (PhraseId p = 0; p < table->size(); ++p) {
    uint32_t sum = 0;
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
      sum += sharded.shard(s).dict().df(p);
    }
    ASSERT_EQ((*table)[p], sum) << "phrase " << p;
  }
}

TEST(ShardedEngineTest, DfTableIsShardSumAcrossLifecycle) {
  const std::string prefix = ::testing::TempDir() + "/df_table_fleet";
  ShardedEngineOptions extra;
  extra.persist_path = prefix;
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(400), /*num_shards=*/3,
                   /*min_df=*/3, std::move(extra));
  ASSERT_TRUE(sharded.persist_status().ok());
  ExpectTableIsShardSum(sharded);

  auto loaded = ShardedEngine::LoadFromFiles(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTableIsShardSum(loaded.value());

  // A batch moves dfs only in the overlay; a shard rebuild absorbs them
  // into that shard's base dictionary, which the table must follow.
  (void)sharded.ApplyUpdate(CopyDocsBatch(sharded.shard(0), 20));
  ExpectTableIsShardSum(sharded);
  sharded.RebuildShard(0);
  ExpectTableIsShardSum(sharded);
  (void)sharded.ApplyUpdate(CopyDocsBatch(sharded.shard(1), 15));
  sharded.Rebuild();
  ExpectTableIsShardSum(sharded);

  UpdateBatch born;
  born.inserts.push_back(UpdateDoc{{"brand", "new", "collocation"}, {}});
  born.inserts.push_back(UpdateDoc{{"brand", "new", "collocation"}, {}});
  (void)sharded.ApplyUpdate(born);
  ASSERT_TRUE(sharded.RefreshDictionary().ok());
  ExpectTableIsShardSum(sharded);
  EXPECT_EQ(ShardedEngine::Adopt(&sharded.shard(0)).base_df_table(), nullptr);

  std::remove(ShardedEngine::FleetManifestPath(prefix).c_str());
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    std::remove(ShardedEngine::ShardFilePath(prefix, s).c_str());
  }
}

/// Ranked output as raw words: ids plus score and interestingness bit
/// patterns, so "equal" means bitwise.
std::vector<uint64_t> BitwiseRanked(const MineResult& result) {
  std::vector<uint64_t> words;
  for (const MinedPhrase& p : result.phrases) {
    words.push_back(p.phrase);
    words.push_back(std::bit_cast<uint64_t>(p.score));
    words.push_back(std::bit_cast<uint64_t>(p.interestingness));
  }
  return words;
}

/// The one-round exhaustive merges against monolithic engines over the
/// same documents: fresh, under a pending overlay (SMJ exact under delta,
/// Exact stale on both sides) and after every shard rebuilt its overlay
/// into its base structures -- which moves the base dfs the table sums.
TEST(ShardedEngineTest, ExhaustiveMergesMatchMonolithBitwise) {
  const MiningEngineOptions options = EngineOptions(/*min_df=*/3);
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(600), options);
  ShardedEngine sharded =
      BuildSharded(MakeSmallSyntheticCorpus(600), /*num_shards=*/4,
                   /*min_df=*/3);
  const std::vector<Query> queries = HarvestQueries(mono, 6);
  ASSERT_FALSE(queries.empty());

  // Mines every query both ways under Exact and SMJ and compares against
  // `reference`, bitwise.
  auto expect_equal = [&](MiningEngine& reference, const char* stage,
                          UpdateGuarantee smj_guarantee) {
    for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kSmj}) {
      for (const Query& base : queries) {
        for (const QueryOperator op :
             {QueryOperator::kAnd, QueryOperator::kOr}) {
          Query query = base;
          query.op = op;
          const MineOptions mine_options{.k = 5};
          const ShardedMineResult merged =
              sharded.Mine(query, algorithm, mine_options);
          const MineResult expected =
              reference.Mine(query, algorithm, mine_options);
          EXPECT_EQ(BitwiseRanked(merged.result), BitwiseRanked(expected))
              << stage << " " << AlgorithmName(algorithm);
          EXPECT_EQ(merged.fill_slots, 0u);
          if (algorithm == Algorithm::kSmj) {
            EXPECT_EQ(merged.result.guarantee, smj_guarantee) << stage;
          }
        }
      }
    }
  };
  expect_equal(mono, "fresh", UpdateGuarantee::kFresh);

  const UpdateBatch batch = CopyDocsBatch(sharded.shard(0), 20);
  (void)mono.ApplyUpdate(batch);
  (void)sharded.ApplyUpdate(batch);
  expect_equal(mono, "overlay", UpdateGuarantee::kExactUnderDelta);

  // After the shard rebuilds the fleet serves the live documents over its
  // frozen phrase set: the reference is an engine built from those
  // documents with the same fixed set.
  sharded.Rebuild();
  Corpus original = MakeSmallSyntheticCorpus(600);
  Corpus live;
  live.vocab() = original.vocab();
  for (DocId d = 0; d < original.size(); ++d) {
    if (d != 2 && d != 4) live.AddDocument(original.doc(d));
  }
  for (const UpdateDoc& doc : batch.inserts) {
    Document d;
    for (const std::string& token : doc.tokens) {
      d.tokens.push_back(live.vocab().Intern(token));
    }
    live.AddDocument(d);
  }
  MiningEngineOptions fixed = options;
  fixed.fixed_phrase_set = std::make_shared<const PhraseDictionary>(
      PhraseExtractor(options.extractor).Extract(original));
  MiningEngine rebuilt = MiningEngine::Build(std::move(live), fixed);
  expect_equal(rebuilt, "rebuilt", UpdateGuarantee::kFresh);
}

/// A batch aimed at `queries`: copies (tokens and facets) of the first
/// `per_query` documents of each query's sub-collection, and deletes of
/// the next two, so absorbing it moves the dfs of the phrases those
/// queries rank.
UpdateBatch MatchingDocsBatch(const MiningEngine& mono,
                              const std::vector<Query>& queries,
                              std::size_t per_query) {
  UpdateBatch batch;
  const Vocabulary& vocab = mono.corpus().vocab();
  for (const Query& query : queries) {
    const std::vector<DocId> subset = EvalSubCollection(query, mono.inverted());
    for (std::size_t i = 0; i < subset.size() && i < per_query + 2; ++i) {
      if (i >= per_query) {
        batch.deletes.push_back(subset[i]);
        continue;
      }
      const Document& src = mono.corpus().doc(subset[i]);
      UpdateDoc doc;
      for (TermId t : src.tokens) {
        doc.tokens.push_back(std::string(vocab.TermText(t)));
      }
      for (TermId t : src.facets) {
        doc.facets.push_back(std::string(vocab.TermText(t)));
      }
      batch.inserts.push_back(std::move(doc));
    }
  }
  return batch;
}

/// Exhaustive mines racing shard rebuilds: each rebuild absorbs a pending
/// overlay aimed at the mined queries and so changes the base dfs the
/// table sums. Every answer must be the one of the per-shard state its
/// epoch vector names -- a result dividing by a table of other shard
/// versions would match none.
TEST(ShardedEngineTest, ExhaustiveMinesRacingRebuildsNeverMixTableVersions) {
  constexpr std::size_t kShards = 2;
  auto make = [] {
    return BuildSharded(MakeSmallSyntheticCorpus(300), kShards,
                        /*min_df=*/3);
  };
  MiningEngine mono =
      MiningEngine::Build(MakeSmallSyntheticCorpus(300), EngineOptions(3));
  std::vector<Query> queries = HarvestQueries(mono, 2);
  ASSERT_FALSE(queries.empty());
  const Algorithm algorithms[] = {Algorithm::kExact, Algorithm::kSmj};
  const std::size_t num_cases = 2 * queries.size();
  auto mine_case = [&](ShardedEngine& fleet, std::size_t c) {
    return fleet.Mine(queries[c / 2], algorithms[c % 2], MineOptions{.k = 5});
  };

  ShardedEngine sharded = make();
  const UpdateBatch batch = MatchingDocsBatch(mono, queries, 6);

  // Reference answers per rebuilt-shard subset, keyed by epoch vector (a
  // reader's snapshots may see shard 1 rebuilt and shard 0 not).
  std::map<std::vector<uint64_t>, std::vector<std::vector<uint64_t>>>
      expected;
  for (unsigned mask = 0; mask < (1u << kShards); ++mask) {
    ShardedEngine reference = make();
    (void)reference.ApplyUpdate(batch);
    for (std::size_t s = 0; s < kShards; ++s) {
      if (mask & (1u << s)) reference.RebuildShard(s);
    }
    std::vector<std::vector<uint64_t>>& answers =
        expected[reference.epochs()];
    for (std::size_t c = 0; c < num_cases; ++c) {
      answers.push_back(BitwiseRanked(mine_case(reference, c).result));
    }
  }
  ASSERT_EQ(expected.size(), 1u << kShards);

  (void)sharded.ApplyUpdate(batch);
  struct Seen {
    std::vector<uint64_t> epochs;
    std::size_t c;
    std::vector<uint64_t> ranked;
  };
  std::atomic<bool> done{false};
  std::vector<std::vector<Seen>> seen(2);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < seen.size(); ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t c = r; !done.load(std::memory_order_relaxed); ++c) {
        const ShardedMineResult merged = mine_case(sharded, c % num_cases);
        seen[r].push_back(Seen{merged.result.shard_epochs, c % num_cases,
                               BitwiseRanked(merged.result)});
      }
    });
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sharded.RebuildShard(s);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  done.store(true);
  for (std::thread& t : readers) t.join();

  std::size_t checked = 0;
  for (const std::vector<Seen>& log : seen) {
    for (const Seen& entry : log) {
      const auto it = expected.find(entry.epochs);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(entry.ranked, it->second[entry.c]) << "case " << entry.c;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

// --- Merge layout invariance -------------------------------------------------

/// Pins the merge bit for bit: one FNV-1a digest over every ranked phrase
/// id and score bit pattern plus the merge's work counters (union size,
/// fill slots, pruned candidates), across all six algorithms x AND/OR,
/// fresh and under a pending overlay. A change to the scatter, union,
/// fill or gather data layout must leave the digest where it is; a change
/// to which rounds run moves it, and MergeRankedOutputIsPinned then shows
/// whether the ranked output moved too.
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
  EXPECT_EQ(digest, 0x197cdd90a868d965ull) << std::hex << digest;
}

/// Pins what a caller sees of the merge, on MergeOutputIsPinned's grid:
/// ranked ids, score and interestingness bit patterns and the union size,
/// without the merge's internal work counters. A change to how supports
/// reach the gather (which shards fill what, where df comes from) must
/// leave this digest where it is.
TEST(ShardedEngineTest, MergeRankedOutputIsPinned) {
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
            words.push_back(std::bit_cast<uint64_t>(p.interestingness));
          }
          words.push_back(merged.candidates);
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
  EXPECT_EQ(digest, 0xa0dadf1fa02e630dull) << std::hex << digest;
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
