// MiningEngine facade behaviour: lazy structures, word-list lifecycle,
// snapshot persistence, and end-to-end agreement after a save/load cycle.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "index/list_entry.h"
#include "index/word_lists.h"
#include "test_util.h"

namespace phrasemine {
namespace {

TEST(EngineTest, BuildPopulatesAllEagerStructures) {
  MiningEngine engine = testing::MakeTinyEngine();
  EXPECT_GT(engine.dict().size(), 0u);
  EXPECT_EQ(engine.corpus().size(), 8u);
  EXPECT_EQ(engine.forward().num_docs(), 8u);
  EXPECT_EQ(engine.forward_compressed().storage(),
            ForwardStorage::kPrefixCompressed);
  EXPECT_EQ(engine.phrase_file().num_phrases(), engine.dict().size());
  EXPECT_EQ(engine.word_lists().num_terms(), 0u);  // Lazy.
}

TEST(EngineTest, ParseQueryUsesCorpusVocabulary) {
  MiningEngine engine = testing::MakeTinyEngine();
  EXPECT_TRUE(engine.ParseQuery("query db", QueryOperator::kAnd).ok());
  EXPECT_FALSE(engine.ParseQuery("nonexistentword", QueryOperator::kOr).ok());
}

TEST(EngineTest, MineBuildsWordListsOnDemand) {
  MiningEngine engine = testing::MakeTinyEngine();
  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine.word_lists().num_terms(), 0u);
  (void)engine.Mine(q.value(), Algorithm::kSmj);
  EXPECT_EQ(engine.word_lists().num_terms(), 2u);
  // A second query extends rather than rebuilds.
  auto q2 = engine.ParseQuery("kernel", QueryOperator::kAnd);
  ASSERT_TRUE(q2.ok());
  (void)engine.Mine(q2.value(), Algorithm::kNra);
  EXPECT_EQ(engine.word_lists().num_terms(), 3u);
}

TEST(EngineTest, SetSmjFractionRebuildsIdLists) {
  MiningEngine engine = testing::MakeTinyEngine();
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  engine.SetSmjFraction(1.0);
  MineResult full = engine.Mine(q.value(), Algorithm::kSmj);
  engine.SetSmjFraction(0.1);
  MineResult small = engine.Mine(q.value(), Algorithm::kSmj);
  EXPECT_DOUBLE_EQ(engine.smj_fraction(), 0.1);
  EXPECT_LE(small.entries_read, full.entries_read);
}

TEST(EngineTest, WordListBytesCountEveryResidentForm) {
  MiningEngine engine = testing::MakeTinyEngine();
  std::vector<TermId> terms;
  for (const char* text : {"query optimization", "db"}) {
    auto q = engine.ParseQuery(text, QueryOperator::kOr);
    ASSERT_TRUE(q.ok());
    (void)engine.Mine(q.value(), Algorithm::kSmj);
    terms.insert(terms.end(), q.value().terms.begin(), q.value().terms.end());
  }
  ASSERT_EQ(terms.size(), 3u);
  // Score-ordered runs plus each id-ordered list's SoA form, the only
  // in-memory form of an id-ordered list.
  std::size_t expected = engine.word_lists().InMemoryBytes();
  const std::size_t score_only = expected;
  for (TermId t : terms) {
    const SharedSoAList list = engine.WithSharedStructures(
        [&] { return engine.FullIdOrderedListLocked(t); });
    ASSERT_NE(list, nullptr);
    expected += list->MemoryBytes();
  }
  EXPECT_GT(expected, score_only);
  EXPECT_EQ(engine.word_list_stats().bytes, expected);
}

TEST(EngineTest, PhraseTextServedFromSlotFile) {
  MiningEngine engine = testing::MakeTinyEngine();
  for (PhraseId p = 0; p < engine.dict().size(); ++p) {
    EXPECT_EQ(engine.PhraseText(p),
              engine.dict().Text(p, engine.corpus().vocab()));
  }
}

TEST(EngineTest, AlgorithmNamesStable) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kExact), "Exact");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGm), "GM");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSimitsis), "Simitsis");
  EXPECT_STREQ(AlgorithmName(Algorithm::kNra), "NRA");
  EXPECT_STREQ(AlgorithmName(Algorithm::kNraDisk), "NRA-disk");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSmj), "SMJ");
}

TEST(EngineTest, SnapshotRoundTripPreservesResults) {
  const std::string dir = ::testing::TempDir();
  MiningEngine original = testing::MakeTinyEngine();
  auto q = original.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  // Materialize word lists so the snapshot carries them.
  MineResult before = original.Mine(q.value(), Algorithm::kSmj);
  ASSERT_TRUE(original.SaveToDirectory(dir).ok());

  auto loaded = MiningEngine::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok());
  MiningEngine& engine = loaded.value();
  EXPECT_EQ(engine.corpus().size(), original.corpus().size());
  EXPECT_EQ(engine.dict().size(), original.dict().size());
  EXPECT_EQ(engine.word_lists().num_terms(),
            original.word_lists().num_terms());

  // Same query, same results, across all algorithms.
  auto q2 = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q2.ok());
  for (Algorithm a : {Algorithm::kExact, Algorithm::kGm, Algorithm::kSmj,
                      Algorithm::kNra, Algorithm::kSimitsis}) {
    MineResult from_loaded = engine.Mine(q2.value(), a);
    MineResult from_original = original.Mine(q.value(), a);
    EXPECT_EQ(testing::Ids(from_loaded), testing::Ids(from_original))
        << AlgorithmName(a);
  }
  std::remove((dir + "/engine.pmidx").c_str());
}

TEST(EngineTest, LoadMissingSnapshotFails) {
  auto loaded = MiningEngine::LoadFromDirectory("/nonexistent/dir");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EngineTest, LoadRejectsGarbageFile) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/engine.pmidx";
  {
    BinaryWriter w;
    w.PutU32(0xDEADBEEF);  // wrong magic
    for (int i = 0; i < 60; ++i) w.PutU8(0);  // past the minimum file size
    ASSERT_TRUE(w.WriteToFile(path).ok());
  }
  auto loaded = MiningEngine::LoadFromDirectory(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EngineTest, LoadRejectsWrongVersion) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/engine.pmidx";
  {
    BinaryWriter w;
    w.PutU32(kIndexFileMagic);
    w.PutU32(999);  // unsupported version
    for (int i = 0; i < 60; ++i) w.PutU8(0);
    ASSERT_TRUE(w.WriteToFile(path).ok());
  }
  auto loaded = MiningEngine::LoadFromDirectory(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EngineTest, TruncatedSnapshotFailsCleanly) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/engine.pmidx";
  MiningEngine original = testing::MakeTinyEngine();
  ASSERT_TRUE(original.SaveToDirectory(dir).ok());
  // Truncate the snapshot to its first half and expect a clean error.
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  const std::size_t full = reader.value().Remaining();
  {
    std::vector<uint8_t> half(full / 2);
    ASSERT_TRUE(reader.value().GetRaw(half.data(), half.size()).ok());
    BinaryWriter w;
    w.PutRaw(half.data(), half.size());
    ASSERT_TRUE(w.WriteToFile(path).ok());
  }
  auto loaded = MiningEngine::LoadFromDirectory(dir);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(EngineTest, NraDiskReportsDiskCost) {
  MiningEngine engine = testing::MakeSmallEngine(200);
  auto queries = engine.ParseQuery("topic:0", QueryOperator::kAnd);
  ASSERT_TRUE(queries.ok());
  MineResult r = engine.Mine(queries.value(), Algorithm::kNraDisk);
  EXPECT_GT(r.disk_ms, 0.0);
  EXPECT_GT(r.TotalMs(), r.compute_ms);
  // In-memory runs report no disk cost.
  MineResult mem = engine.Mine(queries.value(), Algorithm::kNra);
  EXPECT_DOUBLE_EQ(mem.disk_ms, 0.0);
}

TEST(EngineTest, ConcurrentExactMinesMatchSerialBitwise) {
  // Exact mines on one engine run in parallel, each counting in its own
  // thread's scratch: every concurrent answer equals the serial one bit
  // for bit, whatever else the other threads are counting.
  MiningEngine engine = testing::MakeSmallEngine(400);
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    return engine.inverted().df(a) > engine.inverted().df(b);
  });
  ASSERT_GE(terms.size(), 6u);
  std::vector<Query> queries;
  for (std::size_t i = 0; i < 6; ++i) {
    Query q;
    q.op = i % 2 == 0 ? QueryOperator::kOr : QueryOperator::kAnd;
    q.terms = {std::min(terms[i], terms[i + 1]),
               std::max(terms[i], terms[i + 1])};
    queries.push_back(q);
  }
  // Rank every counted phrase, so one miscounted phrase shows.
  const MineOptions all{.k = 1'000'000};
  struct Answer {
    std::vector<std::tuple<PhraseId, uint64_t, uint64_t>> ranked;
    std::size_t entries_read = 0;
    bool operator==(const Answer&) const = default;
  };
  auto answer = [&](const Query& q) {
    const MineResult r = engine.Mine(q, Algorithm::kExact, all);
    Answer a;
    a.entries_read = r.entries_read;
    for (const MinedPhrase& p : r.phrases) {
      a.ranked.emplace_back(p.phrase, std::bit_cast<uint64_t>(p.score),
                            std::bit_cast<uint64_t>(p.interestingness));
    }
    return a;
  };
  std::vector<Answer> serial;
  for (const Query& q : queries) {
    serial.push_back(answer(q));
    ASSERT_FALSE(serial.back().ranked.empty());
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 5;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          // Threads walk the queries from different offsets, so
          // different queries count side by side.
          const std::size_t q = (i + t) % queries.size();
          if (!(answer(queries[q]) == serial[q])) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace phrasemine
