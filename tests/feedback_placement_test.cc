// Feedback-driven placement: the observed-count hotness order, the
// strict-prefix spill contract under feedback, engine re-placement
// result invariance, the planner's observed_queries prior, and the
// service's RefreshPlacement window/cadence loop.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_lists.h"
#include "core/engine.h"
#include "index/list_entry.h"
#include "service/planner.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::MakeSmallEngine;
using testing::RankedSignature;

/// Terms with built word lists on `engine`, covering every term with a
/// positive df (BuildAll keeps the test independent of query harvesting).
std::vector<TermId> BuildAllLists(MiningEngine& engine) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) terms.push_back(t);
  }
  engine.EnsureWordLists(terms);
  return terms;
}

uint64_t ListBytes(const MiningEngine& engine, TermId t) {
  return engine.word_lists().ListBytes(t);
}

/// A two-term OR query over the engine's highest-df terms.
Query HeavyQuery(const MiningEngine& engine) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    return engine.inverted().df(a) > engine.inverted().df(b);
  });
  Query query;
  query.op = QueryOperator::kOr;
  query.terms = {terms.at(0), terms.at(1)};
  std::sort(query.terms.begin(), query.terms.end());
  return query;
}

/// A two-term OR query over the engine's *coldest* listed terms: static
/// df order ranks them last, so any budget sized to their lists spills
/// them -- the configuration where feedback placement visibly differs.
Query ColdQuery(const MiningEngine& engine) {
  const std::vector<TermId> order = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted());
  Query query;
  query.op = QueryOperator::kOr;
  query.terms = {order[order.size() - 2], order[order.size() - 1]};
  std::sort(query.terms.begin(), query.terms.end());
  return query;
}

TEST(FeedbackPlacementTest, HotnessOrderPrefersObservedCountsThenDf) {
  MiningEngine engine = MakeSmallEngine();
  BuildAllLists(engine);

  const std::vector<TermId> static_order = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted());
  ASSERT_GT(static_order.size(), 4u);

  // Boost the statically coldest term: with feedback it must lead the
  // order, and the never-queried remainder must keep its static relative
  // order (count ties fall back to df desc, then TermId).
  const TermId cold = static_order.back();
  TermPopularity observed;
  observed[cold] = 5;
  const std::vector<TermId> feedback_order = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted(), &observed);
  ASSERT_EQ(feedback_order.size(), static_order.size());
  EXPECT_EQ(feedback_order.front(), cold);
  std::vector<TermId> expected_tail(static_order.begin(),
                                    static_order.end() - 1);
  const std::vector<TermId> tail(feedback_order.begin() + 1,
                                 feedback_order.end());
  EXPECT_EQ(tail, expected_tail);

  // Counts rank above each other too, not just above zero.
  const TermId warm = static_order[static_order.size() - 2];
  observed[warm] = 9;
  const std::vector<TermId> two_hot = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted(), &observed);
  EXPECT_EQ(two_hot[0], warm);
  EXPECT_EQ(two_hot[1], cold);
}

TEST(FeedbackPlacementTest, ResidentSetIsStrictPrefixOfFeedbackOrder) {
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> terms = BuildAllLists(engine);

  TermPopularity observed;
  const std::vector<TermId> static_order = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted());
  observed[static_order.back()] = 40;
  observed[static_order[static_order.size() / 2]] = 20;

  const std::vector<TermId> order = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted(), &observed);
  const uint64_t budget = engine.word_lists().InMemoryBytes() / 3;
  const auto resident = DiskResidentLists::ResidentSet(
      engine.word_lists(), engine.inverted(), budget, &observed);
  ASSERT_FALSE(resident.empty());
  ASSERT_LT(resident.size(), terms.size());

  // Walk the feedback order accumulating bytes: pinning stops at the
  // first list that does not fit, everything after spills.
  uint64_t used = 0;
  bool stopped = false;
  for (TermId t : order) {
    const uint64_t bytes = ListBytes(engine, t);
    if (!stopped && used + bytes <= budget) {
      used += bytes;
      EXPECT_TRUE(resident.contains(t)) << "hot term " << t << " not pinned";
    } else {
      stopped = true;
      EXPECT_FALSE(resident.contains(t)) << "cold term " << t << " pinned";
    }
  }
}

TEST(FeedbackPlacementTest, ReplacementNeverChangesResults) {
  MiningEngine engine = MakeSmallEngine();
  BuildAllLists(engine);
  engine.SetDiskResidentBudget(engine.word_lists().InMemoryBytes() / 2);
  const Query query = HeavyQuery(engine);

  const MineResult before = engine.Mine(query, Algorithm::kNraDisk);
  auto observed = std::make_shared<TermPopularity>();
  const std::vector<TermId> order = DiskResidentLists::HotnessOrder(
      engine.word_lists(), engine.inverted());
  (*observed)[order.back()] = 100;  // pin something df would never pin
  engine.SetTermPopularity(observed);
  const MineResult after = engine.Mine(query, Algorithm::kNraDisk);
  EXPECT_EQ(RankedSignature(before), RankedSignature(after));

  // Clearing the snapshot restores static placement, still bitwise equal.
  engine.SetTermPopularity(nullptr);
  const MineResult cleared = engine.Mine(query, Algorithm::kNraDisk);
  EXPECT_EQ(RankedSignature(before), RankedSignature(cleared));
}

TEST(FeedbackPlacementTest, PlacementTracksInstalledPopularity) {
  MiningEngine engine = MakeSmallEngine();
  BuildAllLists(engine);
  const Query query = ColdQuery(engine);

  // Budget exactly the query's own lists: under static df order other
  // terms may out-rank them, but once the query's terms are the observed
  // hot set the spill policy must pin exactly them.
  uint64_t budget = 0;
  for (TermId t : query.terms) budget += ListBytes(engine, t);
  engine.SetDiskResidentBudget(budget);

  const MineResult spilled = engine.Mine(query, Algorithm::kNraDisk);

  auto observed = std::make_shared<TermPopularity>();
  for (TermId t : query.terms) (*observed)[t] = 1000;
  engine.SetTermPopularity(observed);
  const MineResult placed = engine.Mine(query, Algorithm::kNraDisk);

  EXPECT_EQ(RankedSignature(spilled), RankedSignature(placed));
  EXPECT_LT(placed.disk_io.blocks_read, spilled.disk_io.blocks_read)
      << "feedback placement must stop charging I/O for the observed-hot "
         "lists";
}

TEST(FeedbackPlacementTest, PlannerSurfacesObservedQueriesPrior) {
  // The planner only gathers disk inputs from engines built disk-backed.
  MiningEngine::Options build_options;
  build_options.extractor.min_df = 5;
  build_options.disk_backed = true;
  MiningEngine engine = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(), build_options);
  BuildAllLists(engine);
  const Query query = ColdQuery(engine);
  uint64_t budget = 0;
  for (TermId t : query.terms) budget += ListBytes(engine, t);
  engine.SetDiskResidentBudget(budget);

  auto gather = [&] {
    return CostPlanner::GatherInputs(engine, query, MineOptions{},
                                     engine.delta_snapshot());
  };
  const PlannerInputs before = gather();
  ASSERT_TRUE(before.disk_backed);
  bool any_on_disk_before = false;
  for (const TermPlanStats& t : before.terms) {
    EXPECT_EQ(t.observed_queries, 0u) << "no snapshot installed yet";
    any_on_disk_before |= t.on_disk;
  }
  EXPECT_TRUE(any_on_disk_before)
      << "the query's terms must not all fit under static df order (else "
         "this corpus cannot distinguish the placements)";

  auto observed = std::make_shared<TermPopularity>();
  for (TermId t : query.terms) (*observed)[t] = 17;
  engine.SetTermPopularity(observed);

  const PlannerInputs after = gather();
  for (const TermPlanStats& t : after.terms) {
    EXPECT_EQ(t.observed_queries, 17u);
    EXPECT_FALSE(t.on_disk)
        << "observed-hot term " << t.term << " still predicted spilled";
    EXPECT_EQ(t.disk_blocks, 0u);
  }
}

TEST(FeedbackPlacementTest, ServiceRefreshUsesWindowedCounts) {
  MiningEngine engine = MakeSmallEngine();
  BuildAllLists(engine);
  engine.SetDiskResidentBudget(engine.word_lists().InMemoryBytes() / 2);

  PhraseServiceOptions options;
  options.enable_result_cache = false;
  PhraseService service(&engine, options);

  // Nothing served yet: a refresh has no window and installs nothing.
  EXPECT_FALSE(service.RefreshPlacement());
  EXPECT_EQ(service.stats().placement_refreshes, 0u);

  ServiceRequest request;
  request.query = HeavyQuery(engine);
  request.algorithm = Algorithm::kNraDisk;
  const ServiceReply first = service.MineSync(request);
  EXPECT_TRUE(service.RefreshPlacement());
  EXPECT_EQ(service.stats().placement_refreshes, 1u);

  // The per-term counters are published under the documented names.
  const MetricsSnapshot snap = service.metrics_snapshot();
  for (TermId t : request.query.terms) {
    const std::string name =
        "service_term_queries_total{term=\"" + std::to_string(t) + "\"}";
    EXPECT_EQ(snap.counter(name), 1u) << name;
  }

  // No traffic since the last refresh: the window is empty, placement
  // stays, the counter does not move.
  EXPECT_FALSE(service.RefreshPlacement());
  EXPECT_EQ(service.stats().placement_refreshes, 1u);

  // Placement moves cost, never results.
  const ServiceReply after = service.MineSync(request);
  EXPECT_EQ(RankedSignature(first.result), RankedSignature(after.result));
  EXPECT_TRUE(service.RefreshPlacement());
  EXPECT_EQ(service.stats().placement_refreshes, 2u);
}

TEST(FeedbackPlacementTest, WindowedCountsSurviveRebuild) {
  // Regression pin for the windowed-placement semantics: a full engine
  // Rebuild reassigns PhraseIds but carries the vocabulary over, so the
  // service's per-term query counters -- keyed by TermId -- must keep
  // their totals, the refresh window must keep accumulating across the
  // rebuild, and a post-rebuild RefreshPlacement must still install a
  // placement without changing results.
  MiningEngine engine = MakeSmallEngine();
  BuildAllLists(engine);
  engine.SetDiskResidentBudget(engine.word_lists().InMemoryBytes() / 2);

  PhraseServiceOptions options;
  options.enable_result_cache = false;
  PhraseService service(&engine, options);

  ServiceRequest request;
  request.query = HeavyQuery(engine);
  request.algorithm = Algorithm::kNraDisk;
  const ServiceReply before = service.MineSync(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_TRUE(service.RefreshPlacement());

  // One more served query lands in the *new* window, then churn + a full
  // rebuild happen under it.
  (void)service.MineSync(request);
  UpdateBatch batch;
  UpdateDoc doc;
  doc.tokens = {"windowed", "placement", "rebuild"};
  batch.inserts.push_back(std::move(doc));
  service.IngestBatch(batch);
  batch.deletes = {0};
  batch.inserts.clear();
  service.IngestBatch(batch);
  engine.Rebuild();
  BuildAllLists(engine);

  // Counter totals survive: TermIds are stable across Rebuild.
  const MetricsSnapshot snap = service.metrics_snapshot();
  for (TermId t : request.query.terms) {
    const std::string name =
        "service_term_queries_total{term=\"" + std::to_string(t) + "\"}";
    EXPECT_EQ(snap.counter(name), 2u) << name;
  }

  // The pre-rebuild window entry is still pending: the refresh installs
  // it onto the rebuilt engine's lists, and placement stays cost-only.
  const ServiceReply rebuilt = service.MineSync(request);
  ASSERT_TRUE(rebuilt.status.ok());
  EXPECT_TRUE(service.RefreshPlacement());
  EXPECT_EQ(service.stats().placement_refreshes, 2u);
  const ServiceReply placed = service.MineSync(request);
  ASSERT_TRUE(placed.status.ok());
  EXPECT_EQ(RankedSignature(rebuilt.result), RankedSignature(placed.result));
}

TEST(FeedbackPlacementTest, ServiceCadenceFiresAutomatically) {
  MiningEngine engine = MakeSmallEngine();
  BuildAllLists(engine);
  engine.SetDiskResidentBudget(engine.word_lists().InMemoryBytes() / 2);

  PhraseServiceOptions options;
  options.enable_result_cache = false;
  options.placement_refresh_interval = 3;
  PhraseService service(&engine, options);

  ServiceRequest request;
  request.query = HeavyQuery(engine);
  request.algorithm = Algorithm::kNraDisk;
  for (int i = 0; i < 7; ++i) (void)service.MineSync(request);
  EXPECT_GE(service.stats().placement_refreshes, 2u);
}

TEST(FeedbackPlacementTest, ShardedBroadcastKeepsResults) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.disk_backed = true;
  ShardedEngine sharded = ShardedEngine::Build(
      testing::MakeSmallSyntheticCorpus(), options);

  Query query = HeavyQuery(sharded.shard(0));
  const ShardedMineResult before =
      sharded.Mine(query, Algorithm::kNraDisk, MineOptions{.k = 5});

  auto observed = std::make_shared<TermPopularity>();
  for (TermId t : query.terms) (*observed)[t] = 50;
  sharded.SetTermPopularity(observed);
  const ShardedMineResult after =
      sharded.Mine(query, Algorithm::kNraDisk, MineOptions{.k = 5});
  EXPECT_EQ(RankedSignature(before.result), RankedSignature(after.result));
}

}  // namespace
}  // namespace phrasemine
