// CostPlanner decision table over synthesized statistics, plus integration
// with a real engine's index statistics.

#include <cmath>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/planner.h"
#include "test_util.h"

namespace phrasemine {
namespace {

TermPlanStats Term(TermId id, uint32_t df, bool built,
                   std::size_t list_length) {
  TermPlanStats t;
  t.term = id;
  t.df = df;
  t.list_built = built;
  t.list_length = list_length;
  return t;
}

PlannerInputs BaseInputs() {
  PlannerInputs inputs;
  inputs.num_docs = 100000;
  inputs.avg_doc_phrases = 50.0;
  inputs.op = QueryOperator::kAnd;
  inputs.k = 5;
  return inputs;
}

TEST(PlannerTest, EmptyQueryFallsBackToExact) {
  PlannerInputs inputs = BaseInputs();
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.algorithm, Algorithm::kExact);
  EXPECT_NE(d.reason.find("empty query"), std::string::npos);
}

TEST(PlannerTest, ZeroDfTermUnderAndShortCircuitsToExact) {
  PlannerInputs inputs = BaseInputs();
  inputs.terms = {Term(1, 5000, true, 1000), Term(2, 0, false, 0)};
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.algorithm, Algorithm::kExact);
  EXPECT_EQ(d.estimated_subcollection, 0u);
  EXPECT_NE(d.reason.find("empty subcollection"), std::string::npos);
}

TEST(PlannerTest, ApproximationDisallowedNeverPicksListMethods) {
  PlannerInputs inputs = BaseInputs();
  inputs.terms = {Term(1, 20000, true, 30000), Term(2, 20000, true, 30000)};
  PlannerOptions options;
  options.allow_approximate = false;
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, options);
  EXPECT_EQ(d.algorithm, Algorithm::kExact);

  // Tiny subcollection under the same flag goes to Exact.
  inputs.terms = {Term(1, 100, true, 200), Term(2, 100, true, 200)};
  d = CostPlanner::PlanFromInputs(inputs, options);
  EXPECT_EQ(d.algorithm, Algorithm::kExact);
}

TEST(PlannerTest, TinySubcollectionGoesExact) {
  PlannerInputs inputs = BaseInputs();
  // Backoff estimate: 1e5 * 0.002 * sqrt(0.002) ~ 9 <= threshold of 16.
  inputs.terms = {Term(1, 200, true, 500), Term(2, 200, true, 500)};
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.algorithm, Algorithm::kExact);
  EXPECT_LE(d.estimated_subcollection, 16u);
}

TEST(PlannerTest, LongBuiltListsFavorNra) {
  PlannerInputs inputs = BaseInputs();
  // Backoff est |D'| = 1e5 * 0.2 * sqrt(0.2) ~ 8944; GM ~ 447k entries.
  // Lists: 60k entries at traversal 0.3 and entry cost 2 -> ~36.5k. NRA.
  inputs.terms = {Term(1, 20000, true, 30000), Term(2, 20000, true, 30000)};
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.algorithm, Algorithm::kNra);
  ASSERT_EQ(d.estimated_costs.size(), 3u);
  EXPECT_NE(d.reason.find("NRA"), std::string::npos);
}

TEST(PlannerTest, ShortBuiltListsFavorSmj) {
  PlannerInputs inputs = BaseInputs();
  // Backoff est |D'| = 1e5 * 0.04 * sqrt(0.04) = 800; GM ~ 40k. Lists
  // total 600 entries: SMJ ~ 650 beats NRA ~ 860 (fixed setup overhead).
  inputs.terms = {Term(1, 4000, true, 300), Term(2, 4000, true, 300)};
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.algorithm, Algorithm::kSmj);
}

TEST(PlannerTest, UnbuiltListsChargeBuildCostTowardExact) {
  PlannerInputs inputs = BaseInputs();
  inputs.avg_doc_phrases = 50.0;
  // Unbuilt lists with huge estimated lengths plus amortized build cost
  // make the list-based methods lose to a plain forward scan.
  inputs.terms = {Term(1, 20000, false, 200000),
                  Term(2, 20000, false, 200000)};
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.algorithm, Algorithm::kExact);
}

TEST(PlannerTest, LargerKRaisesNraCost) {
  PlannerInputs inputs = BaseInputs();
  inputs.terms = {Term(1, 20000, true, 30000), Term(2, 20000, true, 30000)};
  inputs.k = 5;
  PlanDecision small_k = CostPlanner::PlanFromInputs(inputs, {});
  inputs.k = 40;
  PlanDecision large_k = CostPlanner::PlanFromInputs(inputs, {});
  double nra_small = 0.0, nra_large = 0.0;
  for (const auto& [a, c] : small_k.estimated_costs) {
    if (a == Algorithm::kNra) nra_small = c;
  }
  for (const auto& [a, c] : large_k.estimated_costs) {
    if (a == Algorithm::kNra) nra_large = c;
  }
  EXPECT_GT(nra_large, nra_small);
}

TEST(PlannerTest, OrSubcollectionIsCappedSum) {
  PlannerInputs inputs = BaseInputs();
  inputs.op = QueryOperator::kOr;
  inputs.terms = {Term(1, 70000, true, 30000), Term(2, 70000, true, 30000)};
  PlanDecision d = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(d.estimated_subcollection, inputs.num_docs);  // capped at |D|
}

TEST(PlannerTest, DecisionIsDeterministic) {
  PlannerInputs inputs = BaseInputs();
  inputs.terms = {Term(1, 20000, true, 30000), Term(2, 4000, false, 9000)};
  PlanDecision a = CostPlanner::PlanFromInputs(inputs, {});
  PlanDecision b = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.estimated_subcollection, b.estimated_subcollection);
}

TEST(PlannerTest, PendingUpdatesExcludeStaleMethods) {
  // The count-based methods mine the base corpus; while an unrebuilt
  // overlay is pending the planner must route to NRA/SMJ so the answer
  // reflects the live corpus.
  PlannerInputs inputs = BaseInputs();
  inputs.updates_pending = true;
  // Tiny subcollection: would be Exact without pending updates.
  inputs.terms = {Term(1, 3, true, 10), Term(2, 3, true, 10)};
  PlanDecision tiny = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_TRUE(tiny.algorithm == Algorithm::kNra ||
              tiny.algorithm == Algorithm::kSmj)
      << AlgorithmName(tiny.algorithm);
  // Huge subcollection: Exact must not appear in the candidate costs.
  inputs.terms = {Term(1, 70000, true, 30000), Term(2, 70000, true, 30000)};
  PlanDecision big = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_TRUE(big.algorithm == Algorithm::kNra ||
              big.algorithm == Algorithm::kSmj);
  for (const auto& [algorithm, cost] : big.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kExact);
  }
  // Zero-df under AND: emptiness must be proven against the live corpus.
  inputs.terms = {Term(1, 5000, true, 1000), Term(2, 0, false, 0)};
  PlanDecision zero = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(zero.algorithm, Algorithm::kSmj);
  // allow_approximate == false is an explicit base-corpus promise and
  // overrides the restriction.
  PlannerOptions exact_only;
  exact_only.allow_approximate = false;
  inputs.terms = {Term(1, 20000, true, 30000)};
  PlanDecision promised = CostPlanner::PlanFromInputs(inputs, exact_only);
  EXPECT_EQ(promised.algorithm, Algorithm::kExact);
}

/// Decision-table rows for fleets: multi-shard inputs with no pending
/// overlay must never route to SMJ (its exhaustive fleet merge costs more
/// than Exact's), while the same inputs with an overlay pending still can.
std::vector<std::vector<PlannerInputs>> FleetRows() {
  std::vector<std::vector<PlannerInputs>> rows;
  for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
    for (const bool disk : {false, true}) {
      for (const std::size_t length : {50u, 300u, 3000u, 30000u}) {
        for (const uint32_t df : {500u, 4000u, 20000u}) {
          PlannerInputs shard = BaseInputs();
          shard.op = op;
          shard.disk_backed = disk;
          shard.terms = {Term(1, df, true, length), Term(2, df, true, length)};
          for (TermPlanStats& t : shard.terms) {
            t.on_disk = disk;
            t.disk_blocks = disk ? length / 100 : 0;
          }
          rows.push_back({shard, shard, shard, shard});
        }
      }
    }
  }
  return rows;
}

TEST(PlannerTest, FleetWithoutOverlayNeverPicksSmj) {
  for (const std::vector<PlannerInputs>& shards : FleetRows()) {
    const PlanDecision d = CostPlanner::PlanAcrossShards(shards, {});
    EXPECT_NE(d.algorithm, Algorithm::kSmj) << d.ToString();
    EXPECT_NE(d.algorithm, Algorithm::kGm) << d.ToString();
    for (const auto& [algorithm, cost] : d.estimated_costs) {
      EXPECT_NE(algorithm, Algorithm::kSmj) << d.ToString();
    }
  }
}

TEST(PlannerTest, FleetWithPendingOverlayStillPicksSmj) {
  std::size_t smj = 0;
  for (std::vector<PlannerInputs> shards : FleetRows()) {
    shards[2].updates_pending = true;
    const PlanDecision d = CostPlanner::PlanAcrossShards(shards, {});
    EXPECT_NE(d.algorithm, Algorithm::kExact) << d.ToString();
    smj += d.algorithm == Algorithm::kSmj ? 1 : 0;
  }
  EXPECT_GT(smj, 0u);
}

TEST(PlannerTest, DiskBackedEmitsNraDiskCandidateWithIoCharge) {
  PlannerInputs inputs = BaseInputs();
  inputs.terms = {Term(1, 20000, true, 30000), Term(2, 20000, true, 30000)};
  const PlanDecision in_memory = CostPlanner::PlanFromInputs(inputs, {});

  inputs.disk_backed = true;
  for (TermPlanStats& t : inputs.terms) {
    t.on_disk = true;
    t.disk_blocks = 12;  // ~30k packed entries over 32 KiB blocks
  }
  const PlanDecision on_disk = CostPlanner::PlanFromInputs(inputs, {});

  double nra_mem = -1.0, nra_disk = -1.0;
  for (const auto& [algorithm, cost] : in_memory.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNraDisk);
    if (algorithm == Algorithm::kNra) nra_mem = cost;
  }
  for (const auto& [algorithm, cost] : on_disk.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNra)
        << "disk-backed inputs must cost the NRA candidate as kNraDisk";
    if (algorithm == Algorithm::kNraDisk) nra_disk = cost;
  }
  ASSERT_GE(nra_mem, 0.0);
  ASSERT_GE(nra_disk, 0.0);
  EXPECT_GT(nra_disk, nra_mem);  // the spilled blocks' I/O charge

  // Resident placement charges nothing: same model, new label only.
  for (TermPlanStats& t : inputs.terms) {
    t.on_disk = false;
    t.disk_blocks = 0;
  }
  const PlanDecision pinned = CostPlanner::PlanFromInputs(inputs, {});
  for (const auto& [algorithm, cost] : pinned.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) EXPECT_DOUBLE_EQ(cost, nra_mem);
  }

  // A single spilled list streams at the sequential rate: the random
  // charge models the head jumping between on-device files, which needs
  // more than one of them -- pinning all but one list must not pay it.
  inputs.terms[0].on_disk = true;
  inputs.terms[0].disk_blocks = 12;
  const PlanDecision one_spilled = CostPlanner::PlanFromInputs(inputs, {});
  const PlannerOptions defaults;
  const double traversal =
      defaults.nra_traversal_fraction +
      defaults.nra_k_penalty * static_cast<double>(inputs.k);
  const double expected_io =
      std::ceil(traversal * 12.0) * defaults.disk_sequential_block_cost;
  for (const auto& [algorithm, cost] : one_spilled.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) {
      EXPECT_DOUBLE_EQ(cost, nra_mem + expected_io);
    }
  }

  // A zero-block "spilled" term (df 0, or an estimate rounding to
  // nothing) occupies no device file, so it must not count toward the
  // interleave and flip the real list's reads to the random rate.
  inputs.terms[1].on_disk = true;
  inputs.terms[1].disk_blocks = 0;
  const PlanDecision with_empty = CostPlanner::PlanFromInputs(inputs, {});
  for (const auto& [algorithm, cost] : with_empty.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) {
      EXPECT_DOUBLE_EQ(cost, nra_mem + expected_io);
    }
  }
}

TEST(PlannerTest, DiskChargesSteerBetweenNraDiskAndSmj) {
  // Long spilled lists on a multi-term query: NRA-disk's round-robin
  // head pays the random rate per traversed block while SMJ streams
  // sequentially, so SMJ wins once lists are long enough that I/O
  // dominates -- flip the traversal fraction low and NRA-disk's partial
  // reads win back. Both decisions route through the disk path, never
  // bare kNra.
  PlannerInputs inputs = BaseInputs();
  inputs.disk_backed = true;
  inputs.terms = {Term(1, 30000, true, 30000), Term(2, 30000, true, 30000)};
  for (TermPlanStats& t : inputs.terms) {
    t.on_disk = true;
    t.disk_blocks = 1000;
  }
  const PlanDecision streamed = CostPlanner::PlanFromInputs(inputs, {});
  EXPECT_EQ(streamed.algorithm, Algorithm::kSmj);

  PlannerOptions shallow;
  shallow.nra_traversal_fraction = 0.01;
  shallow.nra_k_penalty = 0.0;
  const PlanDecision partial = CostPlanner::PlanFromInputs(inputs, shallow);
  EXPECT_EQ(partial.algorithm, Algorithm::kNraDisk);
}

TEST(PlannerTest, PlanAcrossShardsChargesDiskMakespan) {
  // Two shards, identical in-memory stats; one spilled its lists. The
  // fleet must plan under the kNraDisk label (one disk-backed shard
  // makes the scatter's slowest shard disk-bound) and the makespan must
  // carry the spilled shard's I/O term.
  PlannerInputs resident = BaseInputs();
  resident.terms = {Term(1, 20000, true, 30000), Term(2, 20000, true, 30000)};
  resident.disk_backed = true;

  PlannerInputs spilled = resident;
  for (TermPlanStats& t : spilled.terms) {
    t.on_disk = true;
    t.disk_blocks = 500;
  }

  std::vector<PlannerInputs> shards = {resident, spilled};
  const PlanDecision fleet = CostPlanner::PlanAcrossShards(shards, {});
  double fleet_nra_disk = -1.0;
  for (const auto& [algorithm, cost] : fleet.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNra);
    if (algorithm == Algorithm::kNraDisk) fleet_nra_disk = cost;
  }
  ASSERT_GE(fleet_nra_disk, 0.0);

  // The makespan equals the spilled shard's own kNraDisk cost (the
  // resident shard is strictly cheaper).
  const PlanDecision alone = CostPlanner::PlanFromInputs(spilled, {});
  double alone_nra_disk = -1.0;
  for (const auto& [algorithm, cost] : alone.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) alone_nra_disk = cost;
  }
  EXPECT_DOUBLE_EQ(fleet_nra_disk, alone_nra_disk);
}

TEST(PlannerTest, PlanOverRealEngineFillsStatistics) {
  MiningEngine engine = testing::MakeTinyEngine();
  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  PlanDecision d = CostPlanner::PlanFromInputs(
      CostPlanner::GatherInputs(engine, q.value(), MineOptions{},
                                engine.delta_snapshot()),
      PlannerOptions{});
  EXPECT_FALSE(d.reason.empty());
  ASSERT_EQ(d.terms.size(), 2u);
  for (const TermPlanStats& t : d.terms) {
    EXPECT_EQ(t.df, engine.inverted().df(t.term));
    EXPECT_FALSE(t.list_built);  // Engine lists are lazy and untouched.
  }
  // The planner only ever selects serving algorithms.
  EXPECT_TRUE(d.algorithm == Algorithm::kExact ||
              d.algorithm == Algorithm::kNra ||
              d.algorithm == Algorithm::kSmj);
  EXPECT_FALSE(d.ToString().empty());
}

}  // namespace
}  // namespace phrasemine
