// Live updates through the PhraseService front door: cache invalidation
// across epochs (deterministic) and concurrent Ingest + Submit storms
// (epoch monotonicity, no pre-update results after an Ingest returns, no
// crashes under background rebuilds). The concurrency tests are the ones
// the TSan CI job scopes to.

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/service.h"
#include "test_util.h"
#include "testing/failpoint.h"

namespace phrasemine {
namespace {

/// Base corpus with score headroom: P(alpha|beta) starts at 2/4 = 0.5, so
/// inserts can move it without saturating at 1.
MiningEngine MakeHeadroomEngine() {
  Corpus corpus;
  corpus.AddTokenized({"alpha", "beta", "noise1"});
  corpus.AddTokenized({"alpha", "beta", "noise2"});
  corpus.AddTokenized({"beta", "gamma", "noise3"});
  corpus.AddTokenized({"beta", "gamma", "noise4"});
  MiningEngine::Options options;
  options.extractor.min_df = 1;
  options.extractor.max_phrase_len = 2;
  return MiningEngine::Build(std::move(corpus), options);
}

double ScoreOf(const MiningEngine& engine, const MineResult& result,
               PhraseId phrase) {
  for (const MinedPhrase& p : result.phrases) {
    if (p.phrase == phrase) return p.interestingness;
  }
  ADD_FAILURE() << "phrase " << engine.PhraseText(phrase) << " not in result";
  return -1.0;
}

TEST(ServiceUpdateTest, IngestInvalidatesResultCacheButKeepsWordLists) {
  MiningEngine engine = MakeHeadroomEngine();
  const TermId alpha = engine.corpus().vocab().Lookup("alpha");
  const PhraseId beta =
      engine.dict().Unigram(engine.corpus().vocab().Lookup("beta"));
  ASSERT_NE(alpha, kInvalidTermId);
  ASSERT_NE(beta, kInvalidPhraseId);

  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  // Deterministic delta path: the tiny corpus would cross the rebuild
  // threshold immediately, and a background rebuild reassigns PhraseIds.
  options.enable_auto_rebuild = false;
  PhraseService service(&engine, options);

  ServiceRequest request;
  request.query.terms = {alpha};
  request.query.op = QueryOperator::kAnd;
  request.options.k = 16;
  request.algorithm = Algorithm::kSmj;

  // Warm the result cache and the engine's lists: the first mine builds
  // alpha's word lists and caches the result; the repeat must be a hit at
  // epoch 0. word_list_cache reports the engine's own built lists.
  ServiceReply first = service.MineSync(request);
  EXPECT_FALSE(first.result_cache_hit);
  EXPECT_EQ(first.epoch, 0u);
  EXPECT_EQ(first.result.guarantee, UpdateGuarantee::kFresh);
  EXPECT_DOUBLE_EQ(ScoreOf(engine, first.result, beta), 0.5);
  ServiceReply warm = service.MineSync(request);
  EXPECT_TRUE(warm.result_cache_hit);
  const std::size_t warm_list_entries = service.stats().word_list_cache.entries;
  EXPECT_GT(warm_list_entries, 0u);

  // Two more "alpha beta" documents: P(alpha|beta) becomes 4/6.
  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{{"alpha", "beta", "noise5"}, {}});
  batch.inserts.push_back(UpdateDoc{{"alpha", "beta", "noise6"}, {}});
  const UpdateStats stats = service.IngestBatch(batch);
  EXPECT_EQ(stats.epoch, 1u);

  // The stale entry is unreachable: next query misses, mines under the
  // overlay, and reports the updated score with the SMJ exactness
  // guarantee.
  ServiceReply updated = service.MineSync(request);
  EXPECT_FALSE(updated.result_cache_hit);
  EXPECT_EQ(updated.epoch, 1u);
  EXPECT_EQ(updated.result.guarantee, UpdateGuarantee::kExactUnderDelta);
  EXPECT_DOUBLE_EQ(ScoreOf(engine, updated.result, beta), 4.0 / 6.0);

  // The new epoch caches normally...
  ServiceReply repeat = service.MineSync(request);
  EXPECT_TRUE(repeat.result_cache_hit);
  EXPECT_EQ(repeat.epoch, 1u);
  EXPECT_DOUBLE_EQ(ScoreOf(engine, repeat.result, beta), 4.0 / 6.0);

  // ...and the engine's word lists were NOT invalidated (delta correction
  // happens at read time; only a rebuild replaces them).
  EXPECT_EQ(service.stats().word_list_cache.entries, warm_list_entries);

  // NRA sees the update too, under the approximate guarantee.
  request.algorithm = Algorithm::kNra;
  ServiceReply nra = service.MineSync(request);
  EXPECT_FALSE(nra.result_cache_hit);
  EXPECT_EQ(nra.result.guarantee, UpdateGuarantee::kApproximateUnderDelta);
  EXPECT_DOUBLE_EQ(ScoreOf(engine, nra.result, beta), 4.0 / 6.0);
}

TEST(ServiceUpdateTest, DeleteDropsPhraseFromResults) {
  MiningEngine engine = MakeHeadroomEngine();
  const TermId alpha = engine.corpus().vocab().Lookup("alpha");
  const PhraseId gamma =
      engine.dict().Unigram(engine.corpus().vocab().Lookup("gamma"));
  ASSERT_NE(gamma, kInvalidPhraseId);

  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  options.enable_auto_rebuild = false;  // see above: keep PhraseIds stable
  PhraseService service(&engine, options);

  ServiceRequest request;
  request.query.terms = {alpha};
  request.query.op = QueryOperator::kAnd;
  request.options.k = 16;
  request.algorithm = Algorithm::kSmj;

  // Insert one "alpha gamma" doc, then delete it again: the phrase must
  // appear at epoch 1 and vanish at epoch 2 (co-count back to zero). The
  // insert is a delta-only co-occurrence -- exactly the extra-entry case
  // that keeps SMJ exact.
  UpdateBatch insert;
  insert.inserts.push_back(UpdateDoc{{"alpha", "gamma"}, {}});
  const UpdateStats s1 = service.IngestBatch(insert);
  const DocId inserted_id = engine.corpus().size();  // first virtual id

  ServiceReply with = service.MineSync(request);
  EXPECT_EQ(with.epoch, s1.epoch);
  EXPECT_DOUBLE_EQ(ScoreOf(engine, with.result, gamma), 1.0 / 3.0);

  UpdateBatch erase;
  erase.deletes.push_back(inserted_id);
  const UpdateStats s2 = service.IngestBatch(erase);
  EXPECT_EQ(s2.epoch, s1.epoch + 1);

  ServiceReply without = service.MineSync(request);
  EXPECT_FALSE(without.result_cache_hit);
  for (const MinedPhrase& p : without.result.phrases) {
    EXPECT_NE(p.phrase, gamma) << "deleted co-occurrence still served";
  }
}

/// Pre-materialized update docs so writer threads never read the (possibly
/// rebuilding) corpus.
std::vector<UpdateDoc> HarvestUpdateDocs(const MiningEngine& engine,
                                         std::size_t count) {
  std::vector<UpdateDoc> docs;
  const Corpus& corpus = engine.corpus();
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<DocId>(i % corpus.size());
    UpdateDoc doc;
    for (TermId t : corpus.doc(id).tokens) {
      doc.tokens.push_back(corpus.vocab().TermText(t));
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Frequent terms to query for; harvested before the storm starts.
std::vector<TermId> HarvestTerms(const MiningEngine& engine,
                                 std::size_t count) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.corpus().vocab().size() &&
                     terms.size() < count;
       ++t) {
    if (engine.inverted().df(t) >= 10) terms.push_back(t);
  }
  return terms;
}

void RunStorm(MiningEngine& engine, PhraseServiceOptions service_options,
              std::size_t num_ingests, bool expect_rebuilds) {
  PhraseService service(&engine, service_options);
  const std::vector<UpdateDoc> update_docs =
      HarvestUpdateDocs(engine, num_ingests * 2);
  const std::vector<TermId> terms = HarvestTerms(engine, 6);
  ASSERT_GE(terms.size(), 2u);
  const std::size_t base_docs = engine.corpus().size();

  // Epoch of the last *returned* Ingest: the service promises that any
  // query submitted afterwards replies with an epoch at least this high.
  std::atomic<uint64_t> last_ingested_epoch{0};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    for (std::size_t i = 0; i < num_ingests; ++i) {
      UpdateBatch batch;
      batch.inserts.push_back(update_docs[(2 * i) % update_docs.size()]);
      if (i % 3 == 1) {
        batch.inserts.push_back(update_docs[(2 * i + 1) % update_docs.size()]);
      }
      if (i % 4 == 3) {
        // Deleting an arbitrary id is fine: unknown/already-deleted ids
        // are ignored by contract.
        batch.deletes.push_back(static_cast<DocId>(i % base_docs));
      }
      const UpdateStats stats = service.IngestBatch(batch);
      // Epochs only move forward, across deltas and rebuilds alike.
      EXPECT_GT(stats.epoch, last_ingested_epoch.load());
      last_ingested_epoch.store(stats.epoch);
      std::this_thread::yield();
    }
    writer_done.store(true);
  });

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 120;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t previous_epoch = 0;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        ServiceRequest request;
        request.query.terms = {terms[(r + i) % terms.size()]};
        if (i % 2 == 0) {
          request.query.terms.push_back(terms[(r + i + 1) % terms.size()]);
        }
        request.query.op =
            (i % 3 == 0) ? QueryOperator::kOr : QueryOperator::kAnd;
        request.options.k = 5;
        switch (i % 4) {
          case 0:
            request.algorithm = Algorithm::kSmj;
            break;
          case 1:
            request.algorithm = Algorithm::kNra;
            break;
          case 2:
            request.algorithm = Algorithm::kGm;
            break;
          default:
            break;  // planner's choice
        }
        const uint64_t floor_epoch = last_ingested_epoch.load();
        ServiceReply reply = service.Submit(std::move(request)).get();
        // The post-Ingest visibility guarantee, and per-thread epoch
        // monotonicity (sequential submits can only move forward).
        EXPECT_GE(reply.epoch, floor_epoch);
        EXPECT_GE(reply.epoch, previous_epoch);
        previous_epoch = reply.epoch;
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(writer_done.load());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ingests, num_ingests);
  EXPECT_GE(stats.epoch, num_ingests);
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kReaders) * kQueriesPerReader);
  service.Shutdown();
  if (expect_rebuilds) {
    EXPECT_GE(service.stats().rebuilds, 1u);
    EXPECT_GE(engine.list_generation(), 1u);
  } else {
    EXPECT_EQ(service.stats().rebuilds, 0u);
    EXPECT_EQ(engine.list_generation(), 0u);
  }

  // The service stayed coherent: a fresh query after the storm reflects
  // the final epoch and still parses against the (grown) vocabulary.
  ServiceRequest final_request;
  final_request.query.terms = {terms[0]};
  final_request.query.op = QueryOperator::kAnd;
  final_request.options.k = 5;
  ServiceReply final_reply = service.MineSync(final_request);
  EXPECT_GE(final_reply.epoch, last_ingested_epoch.load());
}

TEST(ServiceUpdateTest, ConcurrentIngestAndSubmitDeltaOnly) {
  MiningEngine::Options options;
  options.extractor.min_df = 5;
  options.rebuild_threshold = 0.0;  // never recommend: pure overlay path
  MiningEngine engine =
      MiningEngine::Build(testing::MakeSmallSyntheticCorpus(250), options);

  PhraseServiceOptions service_options;
  service_options.pool.num_threads = 4;
  RunStorm(engine, service_options, /*num_ingests=*/25,
           /*expect_rebuilds=*/false);
}

TEST(ServiceUpdateTest, ConcurrentIngestAndSubmitWithAutoRebuild) {
  MiningEngine::Options options;
  options.extractor.min_df = 5;
  // Tiny threshold so background rebuilds fire repeatedly mid-storm.
  options.rebuild_threshold = 0.01;
  MiningEngine engine =
      MiningEngine::Build(testing::MakeSmallSyntheticCorpus(250), options);

  PhraseServiceOptions service_options;
  service_options.pool.num_threads = 4;
  service_options.enable_auto_rebuild = true;
  RunStorm(engine, service_options, /*num_ingests=*/20,
           /*expect_rebuilds=*/true);
}

TEST(ServiceUpdateTest, IngestRacingDeadlineExpiredMineStaysCoherent) {
  // An ingest racing a mine whose deadline expires mid-flight: both must
  // complete with their own typed outcomes (the ingest is never aborted
  // by the query's deadline -- cancellation is per-request), the epoch
  // advances, and the service serves normally afterwards.
  MiningEngine::Options engine_options;
  engine_options.extractor.min_df = 3;
  engine_options.disk_backed = true;  // budget 0: mines are slow enough
  engine_options.disk_resident_budget = 0;
  MiningEngine engine = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(400), engine_options);

  PhraseServiceOptions service_options;
  service_options.pool.num_threads = 2;
  service_options.enable_auto_rebuild = false;
  PhraseService service(&engine, service_options);
  const std::vector<TermId> terms = HarvestTerms(engine, 2);
  ASSERT_GE(terms.size(), 2u);
  const std::vector<UpdateDoc> docs = HarvestUpdateDocs(engine, 4);

  failpoint::Arm("disk.sim.read", {.delay_ms = 0.5});
  ServiceRequest doomed;
  doomed.query.terms = {terms[0], terms[1]};
  doomed.query.op = QueryOperator::kOr;
  doomed.options.k = 8;
  doomed.algorithm = Algorithm::kNraDisk;
  doomed.deadline_ms = 5.0;
  std::future<ServiceReply> mine = service.Submit(std::move(doomed));

  UpdateBatch batch;
  batch.inserts.push_back(docs[0]);
  const UpdateStats ingested = service.IngestBatch(batch);
  EXPECT_EQ(ingested.epoch, 1u);

  const ServiceReply reply = mine.get();
  failpoint::DisarmAll();
  // The mine either beat its deadline (OK) or refused with the typed
  // code -- on this slowed device the latter, but the invariant under
  // test is "typed either way, ingest unaffected".
  EXPECT_TRUE(reply.status.ok() ||
              reply.status.code() == StatusCode::kDeadlineExceeded)
      << reply.status.ToString();

  // Post-race: the epoch advanced and a fresh deadline-free query serves
  // the ingested state.
  ServiceRequest after;
  after.query.terms = {terms[0]};
  after.query.op = QueryOperator::kAnd;
  after.options.k = 8;
  const ServiceReply ok = service.MineSync(after);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GE(ok.epoch, 1u);
}

}  // namespace
}  // namespace phrasemine
