// Differential proof-by-replay for the subscription subsystem
// (src/subscribe/): after EVERY randomized update batch, each standing
// query's incrementally maintained top-k must be bitwise identical --
// same phrases, same scores, same order -- to a fresh SMJ re-mine at the
// same epoch. The replay runs hundreds of batches over both a monolithic
// engine and a multi-shard fleet, with rebuilds interleaved, so the
// shadow-set/bound invariant and the epoch-vector contiguity guard are
// exercised across every maintenance path (incremental merge, scoped
// re-mine fallback, rebuild invalidation).
//
// The targeted property tests at the bottom pin the adversarial churn
// cases the randomized replay covers only statistically: a phrase whose
// support enters and leaves within one batch, score ties exactly at the
// k-th floor, and deletes resurrecting a phrase the shadow set had
// evicted.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "subscribe/subscription_manager.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using phrasemine::testing::MakeSmallSyntheticCorpus;

/// One registered standing query plus the parsed form used for the
/// reference mines (TermIds survive rebuilds; PhraseIds do not, which is
/// exactly why the comparison re-mines instead of caching).
struct RegisteredSub {
  uint64_t id = 0;
  Query query;
  std::size_t k = 0;
  OrExpansionOrder or_order = OrExpansionOrder::kFirstOrder;
};

/// Frequent corpus terms make good subscription terms and good update
/// tokens: their word lists are non-trivial, so batches actually move
/// phrase statistics instead of touching df-0 ghosts.
std::vector<std::string> FrequentTerms(const Corpus& corpus,
                                       std::size_t count) {
  std::vector<uint64_t> freq(corpus.vocab().size(), 0);
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    for (TermId t : corpus.doc(static_cast<DocId>(d)).tokens) {
      if (t < freq.size()) ++freq[t];
    }
  }
  std::vector<TermId> order(freq.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TermId>(i);
  }
  std::sort(order.begin(), order.end(),
            [&](TermId a, TermId b) { return freq[a] > freq[b]; });
  std::vector<std::string> out;
  // Skip the most frequent few: those are the generator's stopwords and
  // their phrases saturate instead of churning.
  for (std::size_t i = 5; i < order.size() && out.size() < count; ++i) {
    out.push_back(corpus.vocab().TermText(order[i]));
  }
  return out;
}

/// A random update document: a token run copied from an existing document
/// (so it re-uses known terms and known phrase shapes), with a sprinkle of
/// extra occurrences of the subscribed terms to push their lists around.
UpdateDoc RandomDoc(const Corpus& corpus,
                    const std::vector<std::string>& hot_terms,
                    std::mt19937* rng) {
  std::uniform_int_distribution<std::size_t> pick_doc(0, corpus.size() - 1);
  const Document& doc = corpus.doc(static_cast<DocId>(pick_doc(*rng)));
  UpdateDoc out;
  if (!doc.tokens.empty()) {
    std::uniform_int_distribution<std::size_t> pick_off(0,
                                                        doc.tokens.size() - 1);
    const std::size_t offset = pick_off(*rng);
    const std::size_t len =
        std::min<std::size_t>(10 + (*rng)() % 30, doc.tokens.size() - offset);
    out.tokens.reserve(len + 4);
    for (std::size_t i = 0; i < len; ++i) {
      out.tokens.push_back(corpus.vocab().TermText(doc.tokens[offset + i]));
    }
  }
  std::uniform_int_distribution<std::size_t> pick_term(0, hot_terms.size() - 1);
  for (int i = 0; i < 3; ++i) {
    out.tokens.push_back(hot_terms[pick_term(*rng)]);
  }
  return out;
}

/// Replay harness shared by the monolith and sharded differential tests:
/// the callbacks are the only path-specific pieces (apply one batch,
/// rebuild, run the reference mine at the current epoch).
template <typename ApplyFn, typename RebuildFn, typename MineFn>
void ReplayAndCompare(SubscriptionManager* manager,
                      const std::vector<RegisteredSub>& subs,
                      const Corpus& corpus, std::size_t num_batches,
                      std::size_t rebuild_every, ApplyFn apply,
                      RebuildFn rebuild, MineFn mine) {
  std::mt19937 rng(20260808);
  const std::vector<std::string> hot_terms = FrequentTerms(corpus, 12);
  ASSERT_FALSE(hot_terms.empty());
  std::size_t live_docs = corpus.size();

  // The bootstrap publishes must land before the first comparison.
  manager->Flush();

  for (std::size_t batch_no = 0; batch_no < num_batches; ++batch_no) {
    UpdateBatch batch;
    const std::size_t num_inserts = rng() % 4;
    for (std::size_t i = 0; i < num_inserts; ++i) {
      batch.inserts.push_back(RandomDoc(corpus, hot_terms, &rng));
    }
    const std::size_t num_deletes = rng() % 3;
    for (std::size_t i = 0; i < num_deletes && live_docs > 0; ++i) {
      batch.deletes.push_back(static_cast<DocId>(rng() % live_docs));
    }
    apply(batch);
    live_docs += batch.inserts.size();  // deletes keep ids addressable

    if (rebuild_every > 0 && (batch_no + 1) % rebuild_every == 0) {
      rebuild();
      live_docs = 0;  // numbering compacted; re-learn below
    }
    if (live_docs == 0) live_docs = corpus.size();

    manager->Flush();
    for (const RegisteredSub& sub : subs) {
      auto snapshot = manager->Snapshot(sub.id);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      EXPECT_TRUE(snapshot.value().exact)
          << "batch " << batch_no << ": exact subscription published an "
          << "approximate state";

      MineResult fresh = mine(sub);
      ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
      EXPECT_EQ(snapshot.value().epoch, fresh.epoch)
          << "batch " << batch_no << ": subscription lags the engine";

      const std::vector<MinedPhrase>& got = snapshot.value().topk;
      ASSERT_EQ(got.size(), fresh.phrases.size())
          << "batch " << batch_no << " subscription " << sub.id;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].phrase, fresh.phrases[i].phrase)
            << "batch " << batch_no << " rank " << i;
        // Bitwise: the incremental rescore uses the engine's own
        // delta-adjustment arithmetic, so not even a ULP may differ.
        EXPECT_EQ(got[i].score, fresh.phrases[i].score)
            << "batch " << batch_no << " rank " << i;
        EXPECT_EQ(got[i].interestingness, fresh.phrases[i].interestingness)
            << "batch " << batch_no << " rank " << i;
      }
    }
  }
}

/// Registers a mixed bag of standing queries over the hot terms: AND and
/// OR, small and larger k, so floors sit at different depths. `min_k`
/// raises every k to at least that many phrases.
std::vector<RegisteredSub> RegisterSubs(
    SubscriptionManager* manager, const Corpus& corpus,
    const std::function<Result<Query>(const std::string&, QueryOperator)>&
        parse,
    std::size_t min_k = 0) {
  const std::vector<std::string> hot = FrequentTerms(corpus, 6);
  struct Spec {
    std::vector<std::size_t> term_idx;
    QueryOperator op;
    std::size_t k;
  };
  const std::vector<Spec> specs = {
      {{0}, QueryOperator::kAnd, 5},
      {{1, 2}, QueryOperator::kAnd, 3},
      {{0, 3}, QueryOperator::kOr, 8},
  };
  std::vector<RegisteredSub> subs;
  for (const Spec& spec : specs) {
    SubscriptionRequest request;
    for (std::size_t idx : spec.term_idx) {
      request.terms.push_back(hot[idx]);
    }
    // Compare against the canonical (sorted-term) query: Subscribe sorts
    // terms like PhraseService does, and log-sum scoring is sensitive to
    // term order at the ulp level.
    std::vector<std::string> sorted_terms = request.terms;
    std::sort(sorted_terms.begin(), sorted_terms.end());
    std::string text;
    for (const std::string& term : sorted_terms) {
      if (!text.empty()) text += ' ';
      text += term;
    }
    request.op = spec.op;
    request.k = std::max(spec.k, min_k);
    auto id = manager->Subscribe(request);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) continue;
    auto query = parse(text, spec.op);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) continue;
    subs.push_back(RegisteredSub{id.value(), std::move(query).value(),
                                 request.k, OrExpansionOrder::kFirstOrder});
  }
  return subs;
}

TEST(SubscriptionDifferentialTest, MonolithReplayMatchesFreshMine) {
  MiningEngine engine = MiningEngine::Build(MakeSmallSyntheticCorpus(300), [] {
    MiningEngine::Options options;
    options.extractor.min_df = 5;
    return options;
  }());
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);

  const Corpus& corpus = engine.corpus();
  std::vector<RegisteredSub> subs = RegisterSubs(
      &manager, corpus, [&](const std::string& text, QueryOperator op) {
        return engine.ParseQuery(text, op);
      });
  ASSERT_EQ(subs.size(), 3u);

  ReplayAndCompare(
      &manager, subs, corpus, /*num_batches=*/120, /*rebuild_every=*/40,
      [&](const UpdateBatch& batch) { engine.ApplyUpdate(batch); },
      [&] { engine.Rebuild(); },
      [&](const RegisteredSub& sub) {
        MineOptions mo;
        mo.k = sub.k;
        mo.or_order = sub.or_order;
        return engine.Mine(sub.query, Algorithm::kSmj, mo);
      });

  // The incremental path must carry real weight: if every batch fell back
  // to a re-mine, the subsystem would be a slow spelling of re-mining.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("subscribe_incremental_total"), 0u);
  EXPECT_EQ(snap.counter("subscribe_batches_total"), 123u);  // + 3 rebuilds
  EXPECT_LT(snap.counter("subscribe_remine_total"),
            snap.counter("subscribe_batches_total") * subs.size() / 2);
}

TEST(SubscriptionDifferentialTest, ShardedReplayMatchesFreshMine) {
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine.extractor.min_df = 5;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(300), options);
  MetricsRegistry registry;
  SubscriptionManagerOptions sub_options;
  sub_options.metrics = &registry;
  SubscriptionManager manager(&sharded, sub_options);

  // The global vocabulary lives with shard 0's engine (every shard clones
  // the same frozen phrase set over the same term ids).
  const Corpus& corpus = sharded.shard(0).corpus();
  std::vector<RegisteredSub> subs = RegisterSubs(
      &manager, corpus, [&](const std::string& text, QueryOperator op) {
        return sharded.ParseQuery(text, op);
      });
  ASSERT_EQ(subs.size(), 3u);

  std::size_t next_rebuild_shard = 0;
  ReplayAndCompare(
      &manager, subs, corpus, /*num_batches=*/110, /*rebuild_every=*/35,
      [&](const UpdateBatch& batch) { sharded.ApplyUpdate(batch); },
      [&] {
        // Shard-by-shard blast radius, like PhraseService's auto-rebuild.
        sharded.RebuildShard(next_rebuild_shard % sharded.num_shards());
        ++next_rebuild_shard;
      },
      [&](const RegisteredSub& sub) {
        MineOptions mo;
        mo.k = sub.k;
        mo.or_order = sub.or_order;
        return sharded.Mine(sub.query, Algorithm::kSmj, mo).result;
      });

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("subscribe_incremental_total"), 0u);
  EXPECT_LT(snap.counter("subscribe_remine_total"),
            snap.counter("subscribe_batches_total") * subs.size() / 2);
}

TEST(SubscriptionDifferentialTest, TruncatedShardsReplayMatchesFreshMine) {
  // A fleet SMJ merges full lists whatever each shard's own SMJ fraction,
  // so subscriptions stay allowed over truncated shards. Their id-ordered
  // caches then hold prefixes, and the incremental rescore must read the
  // full lists packed on the spot. The oracle is an untruncated twin fleet
  // fed the same batches, so it shares no truncated list with the
  // subscribed one; a large k publishes every qualifying phrase, so a
  // touched phrase from a truncated half that was rescored wrong shows.
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.extractor.min_df = 5;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(300), options);
  ShardedEngine twin =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(300), options);
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    sharded.shard(s).SetSmjFraction(0.5);
  }
  MetricsRegistry registry;
  SubscriptionManagerOptions sub_options;
  sub_options.metrics = &registry;
  SubscriptionManager manager(&sharded, sub_options);

  const Corpus& corpus = sharded.shard(0).corpus();
  std::vector<RegisteredSub> subs = RegisterSubs(
      &manager, corpus,
      [&](const std::string& text, QueryOperator op) {
        return sharded.ParseQuery(text, op);
      },
      /*min_k=*/100'000);
  ASSERT_EQ(subs.size(), 3u);

  ReplayAndCompare(
      &manager, subs, corpus, /*num_batches=*/40, /*rebuild_every=*/0,
      [&](const UpdateBatch& batch) {
        sharded.ApplyUpdate(batch);
        twin.ApplyUpdate(batch);
      },
      [] {},
      [&](const RegisteredSub& sub) {
        MineOptions mo;
        mo.k = sub.k;
        mo.or_order = sub.or_order;
        return twin.Mine(sub.query, Algorithm::kSmj, mo).result;
      });

  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.shard(s).smj_fraction(), 0.5);
  }
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("subscribe_incremental_total"), 0u);
}

// --- Adversarial churn properties -------------------------------------------

/// Small controlled corpus: P(alpha|beta) and friends have headroom so
/// single-document churn moves ranks deterministically.
MiningEngine MakeChurnEngine() {
  Corpus corpus;
  corpus.AddTokenized({"alpha", "beta", "pad1"});
  corpus.AddTokenized({"alpha", "beta", "pad2"});
  corpus.AddTokenized({"beta", "gamma", "pad3"});
  corpus.AddTokenized({"beta", "gamma", "pad4"});
  corpus.AddTokenized({"beta", "delta", "pad5"});
  corpus.AddTokenized({"beta", "delta", "pad6"});
  MiningEngine::Options options;
  options.extractor.min_df = 1;
  options.extractor.max_phrase_len = 2;
  return MiningEngine::Build(std::move(corpus), options);
}

/// Asserts the subscription equals a fresh mine right now.
void ExpectMatchesFresh(SubscriptionManager* manager, MiningEngine* engine,
                        uint64_t id, const Query& query, std::size_t k) {
  manager->Flush();
  auto snapshot = manager->Snapshot(id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot.value().exact);
  MineOptions mo;
  mo.k = k;
  MineResult fresh = engine->Mine(query, Algorithm::kSmj, mo);
  ASSERT_EQ(snapshot.value().topk.size(), fresh.phrases.size());
  for (std::size_t i = 0; i < fresh.phrases.size(); ++i) {
    EXPECT_EQ(snapshot.value().topk[i].phrase, fresh.phrases[i].phrase);
    EXPECT_EQ(snapshot.value().topk[i].score, fresh.phrases[i].score);
  }
}

TEST(SubscriptionChurnTest, EnterAndLeaveWithinOneBatch) {
  MiningEngine engine = MakeChurnEngine();
  SubscriptionManager manager(&engine);
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 2;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  Query query = engine.ParseQuery("beta", QueryOperator::kAnd).value();

  // One batch both inserts support for "epsilon beta" and deletes it
  // again (the insert lands at the next live id, which the same batch
  // deletes), plus removes one "alpha beta" support. The net effect on
  // epsilon is zero -- it must neither enter nor linger -- while alpha's
  // score genuinely moves.
  const DocId inserted = static_cast<DocId>(engine.corpus().size());
  UpdateBatch batch;
  batch.inserts.push_back(UpdateDoc{{"epsilon", "beta", "pad7"}, {}});
  batch.deletes.push_back(inserted);
  batch.deletes.push_back(0);  // one "alpha beta" support
  engine.ApplyUpdate(batch);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);

  // And the mirrored case across two batches: enter, then leave.
  UpdateBatch enter;
  enter.inserts.push_back(UpdateDoc{{"alpha", "beta", "pad8"}, {}});
  engine.ApplyUpdate(enter);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);
  UpdateBatch leave;
  leave.deletes.push_back(static_cast<DocId>(engine.corpus().size()) + 1);
  engine.ApplyUpdate(leave);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);
}

TEST(SubscriptionChurnTest, TiesAtTheKthFloorBreakByPhraseId) {
  // alpha/gamma/delta all pair with beta at identical probabilities
  // (2 supports each over df(beta-ish phrases)), so ranks at the floor are
  // decided purely by the PhraseId tie-break. The replay must keep the
  // subscription's tie order identical to the miner's through churn that
  // repeatedly re-creates the tie.
  MiningEngine engine = MakeChurnEngine();
  SubscriptionManager manager(&engine);
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 2;  // the floor cuts through the tied group
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  Query query = engine.ParseQuery("beta", QueryOperator::kAnd).value();
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);

  // Break the tie, then restore it: both transitions must publish states
  // equal to the fresh mine, including the restored tie's id order.
  UpdateBatch boost;
  boost.inserts.push_back(UpdateDoc{{"gamma", "beta", "pad9"}, {}});
  engine.ApplyUpdate(boost);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);

  UpdateBatch restore;
  restore.deletes.push_back(static_cast<DocId>(engine.corpus().size()));
  engine.ApplyUpdate(restore);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);
}

TEST(SubscriptionChurnTest, DeletesResurrectEvictedPhrases) {
  // shadow_pad = 1 keeps the shadow set tight (k + 1), so pushing a
  // phrase's score down evicts it from the shadow entirely. When deletes
  // later lift it back above the floor, the bound must flag the step
  // inconclusive and the re-mine fallback must resurrect it -- silently
  // losing the phrase is the classic incremental-top-k bug.
  MiningEngine engine = MakeChurnEngine();
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.shadow_pad = 1;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 1;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  Query query = engine.ParseQuery("beta", QueryOperator::kAnd).value();
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);

  // Sink "alpha beta": three extra beta-only docs dilute it three ranks
  // deep, past the k_shadow = 2 cap.
  UpdateBatch sink;
  sink.inserts.push_back(UpdateDoc{{"gamma", "beta", "padA"}, {}});
  sink.inserts.push_back(UpdateDoc{{"delta", "beta", "padB"}, {}});
  sink.deletes.push_back(0);  // drop one alpha support
  engine.ApplyUpdate(sink);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);

  // Resurrect it: delete the boosting docs and restore alpha's support.
  const DocId base = static_cast<DocId>(engine.corpus().size());
  UpdateBatch lift;
  lift.deletes.push_back(base);      // the gamma boost
  lift.deletes.push_back(base + 1);  // the delta boost
  lift.inserts.push_back(UpdateDoc{{"alpha", "beta", "padC"}, {}});
  lift.inserts.push_back(UpdateDoc{{"alpha", "beta", "padD"}, {}});
  engine.ApplyUpdate(lift);
  ExpectMatchesFresh(&manager, &engine, id.value(), query, request.k);
}

TEST(SubscriptionDifferentialTest, BestEffortFlagsApproximatePublishes) {
  // A best-effort subscription with a starved shadow (pad 1) publishes
  // through inconclusive bounds instead of re-mining. The flag must tell
  // the truth: once `exact` reads true again the state must equal the
  // fresh mine, and approximate states may only under-report (every
  // published phrase is real with its exact score; the recall bound is
  // documented in docs/subscriptions.md).
  MiningEngine engine = MakeChurnEngine();
  MetricsRegistry registry;
  SubscriptionManagerOptions options;
  options.shadow_pad = 1;
  options.metrics = &registry;
  SubscriptionManager manager(&engine, options);
  SubscriptionRequest request;
  request.terms = {"beta"};
  request.k = 2;
  request.exact = false;
  auto id = manager.Subscribe(request);
  ASSERT_TRUE(id.ok());
  Query query = engine.ParseQuery("beta", QueryOperator::kAnd).value();

  std::mt19937 rng(7);
  const std::vector<std::string> pool = {"alpha", "gamma", "delta", "beta"};
  std::size_t live = engine.corpus().size();
  for (int i = 0; i < 30; ++i) {
    UpdateBatch batch;
    batch.inserts.push_back(
        UpdateDoc{{pool[rng() % pool.size()], "beta", "padX"}, {}});
    if (rng() % 2 == 0) batch.deletes.push_back(static_cast<DocId>(rng() % live));
    engine.ApplyUpdate(batch);
    ++live;
    manager.Flush();

    auto snapshot = manager.Snapshot(id.value());
    ASSERT_TRUE(snapshot.ok());
    MineOptions mo;
    mo.k = request.k;
    MineResult fresh = engine.Mine(query, Algorithm::kSmj, mo);
    if (snapshot.value().exact) {
      ASSERT_EQ(snapshot.value().topk.size(), fresh.phrases.size());
      for (std::size_t r = 0; r < fresh.phrases.size(); ++r) {
        EXPECT_EQ(snapshot.value().topk[r].phrase, fresh.phrases[r].phrase);
        EXPECT_EQ(snapshot.value().topk[r].score, fresh.phrases[r].score);
      }
    } else {
      // Approximate: scores of reported phrases are still exact.
      for (const MinedPhrase& got : snapshot.value().topk) {
        for (const MinedPhrase& want : fresh.phrases) {
          if (got.phrase == want.phrase) {
            EXPECT_EQ(got.score, want.score);
          }
        }
      }
    }
  }
  // A best-effort subscription never pays for fallback mines.
  EXPECT_EQ(registry.Snapshot().counter("subscribe_remine_total"), 0u);
}

}  // namespace
}  // namespace phrasemine
