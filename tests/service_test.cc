// PhraseService end-to-end behaviour: concurrent submissions return results
// byte-identical to serial MiningEngine::Mine, the result cache serves
// repeats, counters add up, and shutdown degrades gracefully.

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "eval/query_gen.h"
#include "gtest/gtest.h"
#include "service/cache.h"
#include "service/service.h"
#include "test_util.h"
#include "testing/failpoint.h"

namespace phrasemine {
namespace {

/// Exact (bitwise) equality of ranked results; the service must not change
/// a single byte relative to the serial engine.
void ExpectSameResults(const MineResult& serial, const MineResult& served,
                       const std::string& label) {
  ASSERT_EQ(serial.phrases.size(), served.phrases.size()) << label;
  for (std::size_t i = 0; i < serial.phrases.size(); ++i) {
    EXPECT_EQ(serial.phrases[i].phrase, served.phrases[i].phrase)
        << label << " rank " << i;
    EXPECT_EQ(serial.phrases[i].score, served.phrases[i].score)
        << label << " rank " << i;
    EXPECT_EQ(serial.phrases[i].interestingness,
              served.phrases[i].interestingness)
        << label << " rank " << i;
  }
}

/// Harvests a mixed AND/OR workload from the engine's own dictionary.
std::vector<Query> MakeWorkload(const MiningEngine& engine) {
  QueryGenOptions gen_options;
  gen_options.num_queries = 12;
  gen_options.min_term_df = 4;
  gen_options.min_pairwise_codf = 2;
  gen_options.min_and_matches = 2;
  QuerySetGenerator generator(gen_options);
  std::vector<Query> queries = generator.Generate(
      engine.dict(), engine.inverted(), engine.corpus().size());
  std::vector<Query> workload;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Query q = queries[i];
    q.op = (i % 2 == 0) ? QueryOperator::kAnd : QueryOperator::kOr;
    workload.push_back(std::move(q));
  }
  return workload;
}

TEST(ServiceTest, ConcurrentResultsMatchSerialEngine) {
  // Two independently built engines over the same deterministic corpus:
  // one serves, one is the serial reference.
  MiningEngine serving = testing::MakeSmallEngine(400);
  MiningEngine reference = testing::MakeSmallEngine(400);
  std::vector<Query> workload = MakeWorkload(reference);
  ASSERT_GE(workload.size(), 4u) << "workload generator found too few queries";

  const std::vector<Algorithm> algorithms = {
      Algorithm::kExact, Algorithm::kGm, Algorithm::kNra, Algorithm::kSmj};

  // Serial ground truth on canonicalized queries (the service canonicalizes
  // internally; mining is defined over term sets, so this is behaviour-
  // preserving).
  std::vector<MineResult> expected;
  std::vector<std::string> labels;
  for (const Query& q : workload) {
    const Query canonical = CanonicalizeQuery(q);
    for (Algorithm a : algorithms) {
      expected.push_back(reference.Mine(canonical, a));
      labels.push_back(std::string(AlgorithmName(a)) + "/" +
                       QueryOperatorName(q.op));
    }
  }

  PhraseServiceOptions options;
  options.pool.num_threads = 4;
  options.pool.queue_capacity = 16;  // Force backpressure on submit.
  PhraseService service(&serving, options);

  std::vector<std::future<ServiceReply>> futures;
  for (const Query& q : workload) {
    for (Algorithm a : algorithms) {
      futures.push_back(service.Submit(ServiceRequest{q, MineOptions{}, a}));
    }
  }
  ASSERT_EQ(futures.size(), expected.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceReply reply = futures[i].get();
    ExpectSameResults(expected[i], reply.result, labels[i]);
    EXPECT_EQ(reply.plan.reason, "forced by caller");
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, futures.size());
  EXPECT_EQ(stats.forced, futures.size());
  EXPECT_EQ(stats.planned, 0u);
}

TEST(ServiceTest, PlannedQueriesMatchSerialEngineOnPlannedAlgorithm) {
  MiningEngine serving = testing::MakeSmallEngine(400);
  MiningEngine reference = testing::MakeSmallEngine(400);
  std::vector<Query> workload = MakeWorkload(reference);
  ASSERT_GE(workload.size(), 4u);

  PhraseServiceOptions options;
  options.pool.num_threads = 4;
  PhraseService service(&serving, options);

  std::vector<std::future<ServiceReply>> futures;
  for (const Query& q : workload) {
    futures.push_back(service.Submit(ServiceRequest{q, MineOptions{}, {}}));
  }
  uint64_t algorithm_count = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceReply reply = futures[i].get();
    EXPECT_FALSE(reply.plan.reason.empty());
    MineResult serial =
        reference.Mine(CanonicalizeQuery(workload[i]), reply.plan.algorithm);
    ExpectSameResults(serial, reply.result, reply.plan.ToString());
    ++algorithm_count;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.planned, algorithm_count);
  uint64_t per_algorithm_total = 0;
  for (uint64_t c : stats.per_algorithm) per_algorithm_total += c;
  EXPECT_EQ(per_algorithm_total, algorithm_count);
}

TEST(ServiceTest, ResultCacheServesRepeats) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&engine, options);

  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  ServiceRequest request{q.value(), MineOptions{}, Algorithm::kNra};

  ServiceReply first = service.MineSync(request);
  EXPECT_FALSE(first.result_cache_hit);
  ServiceReply second = service.MineSync(request);
  EXPECT_TRUE(second.result_cache_hit);
  ExpectSameResults(first.result, second.result, "cached repeat");

  // A spelling with shuffled/duplicated terms hits the same entry.
  ServiceRequest shuffled = request;
  shuffled.query.terms = {request.query.terms[1], request.query.terms[0],
                          request.query.terms[0]};
  ServiceReply third = service.MineSync(shuffled);
  EXPECT_TRUE(third.result_cache_hit);
  ExpectSameResults(first.result, third.result, "canonicalized repeat");

  ServiceStats stats = service.stats();
  EXPECT_GE(stats.result_cache.hits, 2u);
  EXPECT_GE(stats.word_list_cache.hits + stats.word_list_cache.misses, 1u);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
  // per_algorithm attributes compute: the two cache hits don't count.
  EXPECT_EQ(stats.per_algorithm[static_cast<int>(Algorithm::kNra)], 1u);
  EXPECT_EQ(stats.queries, 3u);
}

TEST(ServiceTest, SmjFractionInheritsFromEngine) {
  // An engine pinned at a partial SMJ fraction must be served identically
  // whether kSmj goes through the service's cached bundles or not.
  MiningEngine serving = testing::MakeSmallEngine(300);
  MiningEngine reference = testing::MakeSmallEngine(300);
  serving.SetSmjFraction(0.3);
  reference.SetSmjFraction(0.3);

  auto q = serving.ParseQuery("topic:0", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  MineResult serial = reference.Mine(q.value(), Algorithm::kSmj);

  PhraseService service(&serving, {});  // smj_fraction unset: inherit 0.3.
  ServiceReply reply =
      service.MineSync(ServiceRequest{q.value(), MineOptions{}, Algorithm::kSmj});
  ExpectSameResults(serial, reply.result, "inherited smj fraction");
}

TEST(ServiceTest, DifferentKDoesNotShareCacheEntries) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  MineOptions k3;
  k3.k = 3;
  MineOptions k5;
  k5.k = 5;
  ServiceReply r3 =
      service.MineSync(ServiceRequest{q.value(), k3, Algorithm::kNra});
  ServiceReply r5 =
      service.MineSync(ServiceRequest{q.value(), k5, Algorithm::kNra});
  EXPECT_FALSE(r5.result_cache_hit);
  EXPECT_LE(r3.result.phrases.size(), 3u);
}

TEST(ServiceTest, SubmitBatchPreservesOrder) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q1 = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  auto q2 = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  std::vector<ServiceRequest> batch;
  batch.push_back(ServiceRequest{q1.value(), MineOptions{}, Algorithm::kGm});
  batch.push_back(ServiceRequest{q2.value(), MineOptions{}, Algorithm::kGm});
  auto futures = service.SubmitBatch(std::move(batch));
  ASSERT_EQ(futures.size(), 2u);

  MiningEngine reference = testing::MakeTinyEngine();
  ExpectSameResults(
      reference.Mine(CanonicalizeQuery(q1.value()), Algorithm::kGm),
      futures[0].get().result, "batch[0]");
  ExpectSameResults(
      reference.Mine(CanonicalizeQuery(q2.value()), Algorithm::kGm),
      futures[1].get().result, "batch[1]");
}

TEST(ServiceTest, SubmitAfterShutdownResolvesUnavailable) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  service.Shutdown();

  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  auto future =
      service.Submit(ServiceRequest{q.value(), MineOptions{}, Algorithm::kGm});
  // Fulfilled despite the dead pool -- with a typed refusal, never a hang
  // and never inline execution on a shut-down service.
  ServiceReply reply = future.get();
  EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(reply.result.phrases.empty());
}

TEST(ServiceTest, InvalidRequestsResolveWithTypedStatus) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  // k == 0 is a malformed request at the service boundary (the engine
  // itself tolerates it; the front door refuses it).
  ServiceReply r = service.MineSync(
      ServiceRequest{q.value(), MineOptions{.k = 0}, Algorithm::kGm});
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(r.result.phrases.empty());

  // A term-less query.
  Query empty;
  empty.op = QueryOperator::kAnd;
  r = service.MineSync(ServiceRequest{empty, MineOptions{}, Algorithm::kGm});
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  // Unknown terms are NOT an error: empty lists mine an empty ranking
  // with status OK, matching the engine's semantics.
  Query unknown;
  unknown.op = QueryOperator::kAnd;
  unknown.terms = {static_cast<TermId>(1u << 20)};
  r = service.MineSync(ServiceRequest{unknown, MineOptions{}, Algorithm::kGm});
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.result.phrases.empty());

  // The typed error paths short-circuit before planning/execution, so the
  // executed-query counters stay clean.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(ServiceTest, AdmissionShedsHopelessDeadline) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseServiceOptions options;
  options.admission.max_queue_depth = 8;  // enables the gate
  PhraseService service(&engine, options);
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  // A deadline already in the past is the degenerate "hopeless" query:
  // the cost gate sheds it at admission without ever queueing work.
  ServiceRequest request{q.value(), MineOptions{}, Algorithm::kGm};
  request.cancel =
      std::make_shared<CancelToken>(CancelToken::AfterMillis(-1.0));
  ServiceReply reply = service.Submit(std::move(request)).get();
  EXPECT_EQ(reply.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(reply.result.phrases.empty());
  EXPECT_EQ(service.stats().shed, 1u);
  // The same request without admission control enabled instead runs to
  // the pre-execution deadline check and reports DeadlineExceeded.
  PhraseService unguarded(&engine, {});
  ServiceRequest late{q.value(), MineOptions{}, Algorithm::kGm};
  late.cancel = std::make_shared<CancelToken>(CancelToken::AfterMillis(-1.0));
  reply = unguarded.Submit(std::move(late)).get();
  EXPECT_EQ(reply.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(unguarded.stats().deadline_exceeded, 1u);
}

TEST(ServiceTest, RejectionStormResolvesTyped) {
  MiningEngine engine = testing::MakeTinyEngine();
  PhraseService service(&engine, {});
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());

  // A pool-level rejection storm (failpoint in Enqueue): the future still
  // resolves, with ResourceExhausted -- never a hang, never an exception.
  failpoint::Arm("pool.submit",
                 {.error_code = StatusCode::kResourceExhausted,
                  .error_message = "injected submit storm",
                  .max_hits = 1});
  ServiceReply reply =
      service
          .Submit(ServiceRequest{q.value(), MineOptions{}, Algorithm::kGm})
          .get();
  failpoint::DisarmAll();
  EXPECT_EQ(reply.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().shed, 1u);

  // The storm has passed: the service serves normally again.
  reply = service
              .Submit(ServiceRequest{q.value(), MineOptions{}, Algorithm::kGm})
              .get();
  EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
}

TEST(ServiceTest, ConcurrentEngineMineIsSafe) {
  // The engine-level satellite: direct concurrent Mine() calls (no service
  // in front) against the lazy word-list build path.
  MiningEngine engine = testing::MakeSmallEngine(300);
  MiningEngine reference = testing::MakeSmallEngine(300);
  std::vector<Query> workload = MakeWorkload(reference);
  ASSERT_GE(workload.size(), 3u);

  std::vector<MineResult> expected;
  for (const Query& q : workload) {
    expected.push_back(reference.Mine(q, Algorithm::kNra));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<MineResult>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&engine, &workload, &got, t] {
        for (const Query& q : workload) {
          got[t].push_back(engine.Mine(q, Algorithm::kNra));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < workload.size(); ++i) {
      ExpectSameResults(expected[i], got[t][i],
                        "thread " + std::to_string(t));
    }
  }
}

/// The adopted fleet's reply must be the engine's own mine: same ids,
/// same score bits, same epoch and guarantee -- and no texts (a single
/// engine's ids resolve through MiningEngine::PhraseText).
void ExpectEngineMine(const MineResult& want, const ServiceReply& reply,
                      const std::string& label) {
  ASSERT_TRUE(reply.status.ok()) << label << ": " << reply.status.ToString();
  ASSERT_EQ(want.phrases.size(), reply.result.phrases.size()) << label;
  for (std::size_t i = 0; i < want.phrases.size(); ++i) {
    EXPECT_EQ(want.phrases[i].phrase, reply.result.phrases[i].phrase)
        << label << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.phrases[i].score),
              std::bit_cast<uint64_t>(reply.result.phrases[i].score))
        << label << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.phrases[i].interestingness),
              std::bit_cast<uint64_t>(reply.result.phrases[i].interestingness))
        << label << " rank " << i;
  }
  EXPECT_EQ(reply.epoch, want.epoch) << label;
  EXPECT_EQ(reply.result.guarantee, want.guarantee) << label;
  EXPECT_TRUE(reply.phrase_texts.empty()) << label;
}

TEST(ServiceTest, AdoptedFleetRepliesAreTheEnginesOwnMines) {
  MiningEngine engine = testing::MakeSmallEngine(300);
  const std::vector<Query> workload = MakeWorkload(engine);
  ASSERT_GE(workload.size(), 3u);
  // Update documents are drawn from the corpus up front (ingest interns
  // into the vocabulary the query generator reads).
  std::vector<UpdateDoc> docs;
  for (DocId d = 0; d < 150; ++d) {
    UpdateDoc doc;
    for (TermId t : engine.corpus().doc(d).tokens) {
      doc.tokens.push_back(engine.corpus().vocab().TermText(t));
    }
    docs.push_back(std::move(doc));
  }

  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&engine, options);
  ASSERT_EQ(&service.engine(), &engine);

  auto check_all = [&](const std::string& phase) {
    for (std::size_t i = 0; i < workload.size(); ++i) {
      const Query canonical = CanonicalizeQuery(workload[i]);
      for (Algorithm algorithm :
           {Algorithm::kExact, Algorithm::kGm, Algorithm::kSimitsis,
            Algorithm::kNra, Algorithm::kNraDisk, Algorithm::kSmj}) {
        const MineOptions mine_options{.k = 10};
        const ServiceReply reply = service.MineSync(
            ServiceRequest{workload[i], mine_options, algorithm});
        ExpectEngineMine(engine.Mine(canonical, algorithm, mine_options),
                         reply,
                         phase + " q" + std::to_string(i) + " " +
                             AlgorithmName(algorithm));
      }
    }
  };
  check_all("fresh");

  // Under a pending overlay (5 of 300 documents: below the threshold).
  UpdateBatch small;
  small.inserts.assign(docs.begin(), docs.begin() + 5);
  const UpdateStats pending = service.IngestBatch(small);
  ASSERT_GT(pending.pending_updates, 0u);
  ASSERT_FALSE(pending.rebuild_recommended);
  check_all("pending");

  // Past the rebuild threshold: the service rebuilds the engine itself.
  UpdateBatch large;
  large.inserts.assign(docs.begin() + 5, docs.end());
  ASSERT_TRUE(service.IngestBatch(large).rebuild_recommended);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.stats().rebuilds == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.stats().rebuilds, 1u);
  ASSERT_EQ(engine.update_stats().pending_updates, 0u);
  check_all("rebuilt");
}

TEST(ServiceTest, FleetCostGateShedsWhatTheEwmaWouldAdmit) {
  ShardedEngine fleet =
      ShardedEngine::Build(testing::MakeSmallSyntheticCorpus(300),
                           ShardedEngineOptions{.num_shards = 2});
  const Query query = fleet.ParseQuery("topic:0", QueryOperator::kAnd).value();
  // A high-df term: the planner reaches its cost model (a short-circuit
  // decision carries no cost to convert).
  ASSERT_FALSE(CostPlanner::PlanAcrossShards(
                   fleet.GatherPlannerInputs(query, MineOptions{}), {})
                   .estimated_costs.empty());

  PhraseServiceOptions options;
  options.admission.max_queue_depth = 8;  // enables the gate
  options.admission.cost_to_ms = 1e6;     // every modeled entry: 1000 s
  // A minute of deadline: the measured EWMA alone admits the request.
  ServiceRequest hopeless{query, MineOptions{}, {}};
  hopeless.deadline_ms = 60000.0;

  PhraseService gated(&fleet, options);
  // One executed query seeds the EWMA (the gate admits without it).
  ASSERT_TRUE(gated.Submit(ServiceRequest{query, MineOptions{}, Algorithm::kGm})
                  .get()
                  .status.ok());
  ServiceReply reply = gated.Submit(hopeless).get();
  EXPECT_EQ(reply.status.code(), StatusCode::kResourceExhausted)
      << reply.status.ToString();
  EXPECT_EQ(gated.stats().shed, 1u);

  options.admission.cost_to_ms = 0.0;  // EWMA only
  PhraseService ewma_only(&fleet, options);
  ASSERT_TRUE(
      ewma_only.Submit(ServiceRequest{query, MineOptions{}, Algorithm::kGm})
          .get()
          .status.ok());
  reply = ewma_only.Submit(hopeless).get();
  EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(ewma_only.stats().shed, 0u);
}

}  // namespace
}  // namespace phrasemine
