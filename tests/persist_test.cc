// Persistence acceptance: engines and fleets reopened from their index
// files answer bitwise-identically to the freshly built originals, across
// every algorithm including the measured (mmap-backed) disk path, after
// updates and rebuilds, and through a restarted PhraseService.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "storage/index_file.h"
#include "test_util.h"

namespace phrasemine {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveFleet(const std::string& prefix, std::size_t shards) {
  std::remove(ShardedEngine::FleetManifestPath(prefix).c_str());
  for (std::size_t s = 0; s < shards; ++s) {
    std::remove(ShardedEngine::ShardFilePath(prefix, s).c_str());
  }
}

TEST(PersistTest, BuildWithPersistPathAutoPersists) {
  const std::string path = TempPath("auto_persist.pmidx");
  MiningEngine::Options options;
  options.extractor.min_df = 2;
  options.extractor.max_phrase_len = 4;
  options.persist_path = path;
  MiningEngine original =
      MiningEngine::Build(testing::MakeTinyCorpus(), options);
  ASSERT_TRUE(original.persist_status().ok())
      << original.persist_status().message();

  auto q = original.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  // Warm lists on the original only: the loaded engine must produce the
  // same answers from its own (file-decoded) structures.
  (void)original.Mine(q.value(), Algorithm::kSmj);

  auto loaded = MiningEngine::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  MiningEngine& reopened = loaded.value();
  ASSERT_NE(reopened.index_file(), nullptr);

  auto q2 = reopened.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q2.ok());
  for (Algorithm a :
       {Algorithm::kExact, Algorithm::kGm, Algorithm::kSimitsis,
        Algorithm::kSmj, Algorithm::kNra, Algorithm::kNraDisk}) {
    EXPECT_EQ(testing::RankedSignature(reopened.Mine(q2.value(), a)),
              testing::RankedSignature(original.Mine(q.value(), a)))
        << AlgorithmName(a);
  }
  std::remove(path.c_str());
}

TEST(PersistTest, LoadedEngineMeasuresRealDiskIo) {
  const std::string path = TempPath("measured.pmidx");
  MiningEngine original = testing::MakeSmallEngine(200);
  auto q = original.ParseQuery("topic:0", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  // Materialize the query's word lists so the file carries their bytes
  // and the loaded disk tier can back the lists with real mapped ranges.
  MineResult from_memory = original.Mine(q.value(), Algorithm::kNra);
  ASSERT_TRUE(original.SaveToFile(path).ok());

  auto loaded = MiningEngine::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  MiningEngine& reopened = loaded.value();
  ASSERT_NE(reopened.index_file(), nullptr);
  EXPECT_GT(reopened.index_file()->open_ms(), 0.0);

  auto q2 = reopened.ParseQuery("topic:0", QueryOperator::kAnd);
  ASSERT_TRUE(q2.ok());
  const MineResult measured = reopened.Mine(q2.value(), Algorithm::kNraDisk);
  // Identical ranking (the disk tier moves cost, never contents) with
  // real I/O observed: the backend touched mapped bytes, not a model.
  EXPECT_EQ(testing::RankedSignature(measured),
            testing::RankedSignature(from_memory));
  EXPECT_GT(measured.disk_io.bytes, 0u);
  EXPECT_GT(measured.disk_io.blocks_read, 0u);
  std::remove(path.c_str());
}

TEST(PersistTest, RebuildRePersistsUpdatedState) {
  const std::string path = TempPath("rebuild_persist.pmidx");
  MiningEngine::Options options;
  options.extractor.min_df = 2;
  options.extractor.max_phrase_len = 4;
  options.persist_path = path;
  MiningEngine engine =
      MiningEngine::Build(testing::MakeTinyCorpus(), options);

  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{
      {"query", "optimization", "beats", "guessing", "db"}, {}});
  batch.deletes.push_back(5);
  (void)engine.ApplyUpdate(batch);
  engine.Rebuild();  // absorbs the delta and re-persists
  ASSERT_TRUE(engine.persist_status().ok())
      << engine.persist_status().message();

  auto loaded = MiningEngine::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  MiningEngine& reopened = loaded.value();
  EXPECT_EQ(reopened.corpus().size(), engine.corpus().size());

  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  auto q2 = reopened.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q2.ok());
  for (Algorithm a : {Algorithm::kExact, Algorithm::kSmj, Algorithm::kNra}) {
    EXPECT_EQ(testing::RankedSignature(reopened.Mine(q2.value(), a)),
              testing::RankedSignature(engine.Mine(q.value(), a)))
        << AlgorithmName(a);
  }
  std::remove(path.c_str());
}

TEST(PersistTest, ShardedFleetRoundTrip) {
  const std::string prefix = TempPath("fleet_roundtrip");
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine.extractor.min_df = 2;
  options.engine.extractor.max_phrase_len = 4;
  options.persist_path = prefix;
  ShardedEngine original =
      ShardedEngine::Build(testing::MakeTinyCorpus(), options);
  ASSERT_TRUE(original.persist_status().ok())
      << original.persist_status().message();

  auto loaded = ShardedEngine::LoadFromFiles(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ShardedEngine& reopened = loaded.value();
  EXPECT_EQ(reopened.num_shards(), 3u);
  EXPECT_EQ(reopened.num_docs(), original.num_docs());
  EXPECT_EQ(reopened.phrase_set().size(), original.phrase_set().size());

  auto q = original.ParseQuery("query optimization", QueryOperator::kAnd);
  auto q2 = reopened.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q2.ok());
  for (Algorithm a : {Algorithm::kExact, Algorithm::kGm, Algorithm::kSmj,
                      Algorithm::kNra, Algorithm::kSimitsis}) {
    const ShardedMineResult from_original = original.Mine(q.value(), a);
    const ShardedMineResult from_reopened = reopened.Mine(q2.value(), a);
    EXPECT_EQ(testing::RankedSignature(from_reopened.result),
              testing::RankedSignature(from_original.result))
        << AlgorithmName(a);
    EXPECT_EQ(from_reopened.texts, from_original.texts) << AlgorithmName(a);
  }

  // The restored document routing still accepts updates.
  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{{"kernel", "systems", "db"}, {}});
  batch.deletes.push_back(0);
  const ShardedUpdateStats stats = reopened.ApplyUpdate(batch);
  EXPECT_EQ(stats.total.live_docs, original.num_docs());  // +1 -1
  RemoveFleet(prefix, 3);
}

TEST(PersistTest, ShardedSaveRefusesPendingDeltas) {
  const std::string prefix = TempPath("fleet_pending");
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.extractor.min_df = 2;
  ShardedEngine sharded =
      ShardedEngine::Build(testing::MakeTinyCorpus(), options);

  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{{"query", "optimization", "db"}, {}});
  (void)sharded.ApplyUpdate(batch);

  const Status refused = sharded.SaveToFiles(prefix);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);

  sharded.Rebuild();  // absorbs the delta; the family is now writable
  ASSERT_TRUE(sharded.SaveToFiles(prefix).ok());
  auto loaded = ShardedEngine::LoadFromFiles(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().num_docs(), sharded.num_docs());
  RemoveFleet(prefix, 2);
}

TEST(PersistTest, ServiceRestartAnswersIdentically) {
  // The end-to-end restart contract: a PhraseService constructed over an
  // engine reopened from its index file answers every query with the
  // same ranked phrases and scores as a service over the original.
  const std::string path = TempPath("service_restart.pmidx");
  MiningEngine original = testing::MakeSmallEngine(200);
  {
    auto warm = original.ParseQuery("topic:0 topic:1", QueryOperator::kOr);
    ASSERT_TRUE(warm.ok());
    (void)original.Mine(warm.value(), Algorithm::kSmj);
  }
  ASSERT_TRUE(original.SaveToFile(path).ok());
  auto loaded = MiningEngine::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  MiningEngine& reopened = loaded.value();

  PhraseService before(&original);
  PhraseService after(&reopened);
  for (const char* text : {"topic:0", "topic:1 topic:2", "topic:0 topic:3"}) {
    auto q = original.ParseQuery(text, QueryOperator::kOr);
    auto q2 = reopened.ParseQuery(text, QueryOperator::kOr);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(q2.ok());
    for (Algorithm a :
         {Algorithm::kExact, Algorithm::kSmj, Algorithm::kNra}) {
      const ServiceReply reply_before =
          before.MineSync(ServiceRequest{q.value(), MineOptions{}, a});
      const ServiceReply reply_after =
          after.MineSync(ServiceRequest{q2.value(), MineOptions{}, a});
      EXPECT_EQ(testing::RankedSignature(reply_after.result),
                testing::RankedSignature(reply_before.result))
          << text << " / " << AlgorithmName(a);
    }
  }
  std::remove(path.c_str());
}

// The persisted bytes of the word lists are a file format, independent of
// how the lists are laid out in memory: an engine with every term's list
// built must persist to the same bytes, pinned here as FNV-1a hashes of
// the word-list section payload and of the whole file.
TEST(PersistTest, WordListFileBytesArePinned) {
  MiningEngine engine = testing::MakeSmallEngine(200);
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    terms.push_back(t);
  }
  engine.EnsureWordLists(terms);
  ASSERT_EQ(engine.word_lists().num_terms(), terms.size());

  const std::string path = TempPath("pinned_lists.pmidx");
  const std::string again = TempPath("pinned_lists_again.pmidx");
  ASSERT_TRUE(engine.SaveToFile(path).ok());
  ASSERT_TRUE(engine.SaveToFile(again).ok());
  auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  };
  const std::vector<uint8_t> bytes = read_all(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_all(again));  // the file is deterministic

  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  const std::span<const uint8_t> lists =
      file.value().section(IndexSection::kWordScoreLists);
  EXPECT_EQ(lists.size(), 3477100u);
  EXPECT_EQ(Fnv1a64(lists.data(), lists.size()), 17229278546794751376ull);
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 15567482759712763904ull);
  std::remove(path.c_str());
  std::remove(again.c_str());
}

}  // namespace
}  // namespace phrasemine
