// Concurrency storms over the subscription subsystem -- the tests the
// TSan CI job scopes to. Ingest, Subscribe, Poll, Snapshot and
// Unsubscribe race freely; the assertions are the invariants that must
// hold under any interleaving: no data races (TSan), epochs monotone per
// subscription, every future/poll resolves, and after the storm drains a
// surviving subscription equals a fresh re-mine at the final epoch.

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/service.h"
#include "subscribe/subscription_manager.h"
#include "test_util.h"

namespace phrasemine {
namespace {

/// Pre-generates update batches from the corpus BEFORE the storm starts:
/// ingest interns new terms under the engine's vocab lock, so test
/// threads must not read the vocabulary concurrently.
std::vector<UpdateBatch> PreparedBatches(const Corpus& corpus,
                                         std::size_t count, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<UpdateBatch> batches;
  batches.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    UpdateBatch batch;
    const std::size_t inserts = 1 + rng() % 2;
    for (std::size_t i = 0; i < inserts; ++i) {
      const Document& doc =
          corpus.doc(static_cast<DocId>(rng() % corpus.size()));
      UpdateDoc out;
      const std::size_t len = std::min<std::size_t>(8 + rng() % 16,
                                                    doc.tokens.size());
      for (std::size_t t = 0; t < len; ++t) {
        out.tokens.push_back(corpus.vocab().TermText(doc.tokens[t]));
      }
      batch.inserts.push_back(std::move(out));
    }
    if (rng() % 2 == 0) {
      batch.deletes.push_back(static_cast<DocId>(rng() % corpus.size()));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Frequent non-stopword terms, picked before the storm for the same
/// vocabulary-locking reason.
std::vector<std::string> HotTerms(const Corpus& corpus, std::size_t count) {
  std::vector<uint64_t> freq(corpus.vocab().size(), 0);
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    for (TermId t : corpus.doc(static_cast<DocId>(d)).tokens) ++freq[t];
  }
  std::vector<TermId> order(freq.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TermId>(i);
  }
  std::sort(order.begin(), order.end(),
            [&](TermId a, TermId b) { return freq[a] > freq[b]; });
  std::vector<std::string> out;
  for (std::size_t i = 5; i < order.size() && out.size() < count; ++i) {
    out.push_back(corpus.vocab().TermText(order[i]));
  }
  return out;
}

TEST(SubscriptionStormTest, ConcurrentIngestSubscribePollUnsubscribe) {
  MiningEngine engine = testing::MakeSmallEngine(150);
  SubscriptionManager manager(&engine);
  const std::vector<std::string> hot = HotTerms(engine.corpus(), 8);
  ASSERT_GE(hot.size(), 4u);

  // One durable subscription survives the whole storm and is compared
  // against a fresh mine at the end.
  SubscriptionRequest durable;
  durable.terms = {hot[0]};
  durable.k = 6;
  auto durable_id = manager.Subscribe(durable);
  ASSERT_TRUE(durable_id.ok());

  constexpr int kIngestThreads = 2;
  constexpr int kSubThreads = 2;
  constexpr std::size_t kBatches = 30;
  std::vector<std::vector<UpdateBatch>> batches;
  for (int i = 0; i < kIngestThreads; ++i) {
    batches.push_back(
        PreparedBatches(engine.corpus(), kBatches, 1000 + (uint32_t)i));
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kIngestThreads; ++i) {
    threads.emplace_back([&, i] {
      for (const UpdateBatch& batch : batches[static_cast<std::size_t>(i)]) {
        engine.ApplyUpdate(batch);
      }
    });
  }
  for (int i = 0; i < kSubThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 rng(2000 + static_cast<uint32_t>(i));
      for (int round = 0; round < 15; ++round) {
        SubscriptionRequest request;
        request.terms = {hot[rng() % hot.size()]};
        if (rng() % 3 == 0) request.terms.push_back(hot[rng() % hot.size()]);
        request.op = rng() % 4 == 0 ? QueryOperator::kOr : QueryOperator::kAnd;
        request.k = 3 + rng() % 5;
        auto id = manager.Subscribe(request);
        if (!id.ok()) {
          failed.store(true);
          continue;
        }
        uint64_t last_epoch = 0;
        for (int polls = 0; polls < 3; ++polls) {
          auto updates = manager.Poll(id.value(), 8, /*wait_ms=*/2.0);
          if (!updates.ok()) {
            failed.store(true);
            break;
          }
          // Epochs are monotone within one subscription's stream.
          for (const SubscriptionUpdate& update : updates.value()) {
            if (update.epoch < last_epoch) failed.store(true);
            last_epoch = update.epoch;
          }
          auto snapshot = manager.Snapshot(id.value());
          if (!snapshot.ok()) failed.store(true);
        }
        if (!manager.Unsubscribe(id.value()).ok()) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  // Storm drained: the durable subscription must equal a fresh re-mine.
  manager.Flush();
  EXPECT_EQ(manager.num_subscriptions(), 1u);
  auto snapshot = manager.Snapshot(durable_id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot.value().exact);
  Query query = engine.ParseQuery(hot[0], QueryOperator::kAnd).value();
  MineOptions mo;
  mo.k = durable.k;
  MineResult fresh = engine.Mine(query, Algorithm::kSmj, mo);
  ASSERT_EQ(snapshot.value().topk.size(), fresh.phrases.size());
  for (std::size_t i = 0; i < fresh.phrases.size(); ++i) {
    EXPECT_EQ(snapshot.value().topk[i].phrase, fresh.phrases[i].phrase);
    EXPECT_EQ(snapshot.value().topk[i].score, fresh.phrases[i].score);
  }
}

TEST(SubscriptionStormTest, ServiceFrontDoorStormWithQueries) {
  // The same storm through PhraseService, with ad-hoc queries riding
  // alongside: subscriptions and the serving path share the engines, the
  // registry and (on this config) a 2-shard fleet. Auto-rebuild is off so
  // the final differential comparison races nothing.
  MiningEngine engine = testing::MakeSmallEngine(150);
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.engine = engine.options();
  ShardedEngine sharded =
      ShardedEngine::Build(engine.CloneBaseCorpus(), sharded_options);
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  options.enable_auto_rebuild = false;
  PhraseService service(&sharded, options);
  const Corpus& corpus = service.engine().corpus();
  const std::vector<std::string> hot = HotTerms(corpus, 8);
  ASSERT_GE(hot.size(), 4u);

  SubscriptionRequest durable;
  durable.terms = {hot[1]};
  durable.k = 5;
  auto durable_id = service.Subscribe(durable);
  ASSERT_TRUE(durable_id.ok());

  std::vector<std::vector<UpdateBatch>> batches;
  for (int i = 0; i < 2; ++i) {
    batches.push_back(PreparedBatches(corpus, 20, 3000 + (uint32_t)i));
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      for (const UpdateBatch& batch : batches[static_cast<std::size_t>(i)]) {
        service.IngestBatch(batch);
      }
    });
  }
  threads.emplace_back([&] {
    std::mt19937 rng(4000);
    for (int round = 0; round < 10; ++round) {
      SubscriptionRequest request;
      request.terms = {hot[rng() % hot.size()]};
      request.k = 4;
      auto id = service.Subscribe(request);
      if (!id.ok()) {
        failed.store(true);
        continue;
      }
      auto updates = service.PollSubscription(id.value(), 8, /*wait_ms=*/2.0);
      if (!updates.ok()) failed.store(true);
      if (!service.Unsubscribe(id.value()).ok()) failed.store(true);
    }
  });
  threads.emplace_back([&] {
    std::mt19937 rng(5000);
    for (int round = 0; round < 10; ++round) {
      ServiceRequest request;
      auto query = service.sharded()->ParseQuery(hot[rng() % hot.size()],
                                                 QueryOperator::kAnd);
      if (!query.ok()) {
        failed.store(true);
        continue;
      }
      request.query = std::move(query).value();
      request.options.k = 5;
      ServiceReply reply = service.MineSync(request);
      if (!reply.status.ok()) failed.store(true);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  service.subscriptions()->Flush();
  auto snapshot = service.SubscriptionSnapshot(durable_id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot.value().exact);

  ServiceRequest verify;
  verify.query =
      service.sharded()->ParseQuery(hot[1], QueryOperator::kAnd).value();
  verify.options.k = durable.k;
  verify.algorithm = Algorithm::kSmj;
  ServiceReply fresh = service.MineSync(verify);
  ASSERT_TRUE(fresh.status.ok());
  ASSERT_EQ(snapshot.value().topk.size(), fresh.result.phrases.size());
  for (std::size_t i = 0; i < fresh.result.phrases.size(); ++i) {
    EXPECT_EQ(snapshot.value().topk[i].phrase, fresh.result.phrases[i].phrase);
    EXPECT_EQ(snapshot.value().topk[i].score, fresh.result.phrases[i].score);
  }
}

}  // namespace
}  // namespace phrasemine
