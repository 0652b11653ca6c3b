// Per-shard disk tier: the DiskResidentLists spill policy (pin the
// hottest lists by term df, spill the cold tail), the free-read contract
// of pinned lists, placement determinism, and the planner's disk-aware
// routing over a real disk-backed engine.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/disk_lists.h"
#include "core/engine.h"
#include "core/nra_miner.h"
#include "index/list_entry.h"
#include "service/planner.h"
#include "shard/sharded_engine.h"
#include "storage/index_file.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::MakeSmallEngine;

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

/// The df-descending (ties: smaller id) hotness order the policy pins by.
std::vector<TermId> HotnessOrder(const MiningEngine& engine,
                                 std::vector<TermId> terms) {
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    const uint32_t da = engine.inverted().df(a);
    const uint32_t db = engine.inverted().df(b);
    if (da != db) return da > db;
    return a < b;
  });
  return terms;
}

/// A two-term OR query over the engine's highest-df terms (the synthetic
/// vocabulary is generated pseudo-words, so queries are built from term
/// ids rather than parsed text).
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

/// FNV-1a over a ranked result's (phrase id, score bit pattern)
/// sequence: a compact bitwise fingerprint of RankedSignature.
uint64_t SignatureHash(const MineResult& result) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [phrase, score] : testing::RankedSignature(result)) {
    uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof(bits));
    mix(phrase);
    mix(bits);
  }
  return h;
}

/// A fixed kNraDisk query set over `engine`'s df order: hot and cold
/// terms, OR and AND, two and three terms, so both pinned and spilled
/// lists are read under a half-of-the-lists budget.
std::vector<Query> PinnedQueries(const MiningEngine& engine) {
  std::vector<TermId> order;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) order.push_back(t);
  }
  order = HotnessOrder(engine, order);
  const std::size_t mid = order.size() / 2;
  const std::size_t tail = order.size() * 3 / 4;
  auto make = [](QueryOperator op, std::vector<TermId> terms) {
    std::sort(terms.begin(), terms.end());
    Query q;
    q.op = op;
    q.terms = std::move(terms);
    return q;
  };
  return {
      make(QueryOperator::kOr, {order.at(0), order.at(1)}),
      make(QueryOperator::kAnd, {order.at(0), order.at(mid)}),
      make(QueryOperator::kOr,
           {order.at(mid), order.at(mid + 1), order.at(mid + 2)}),
      make(QueryOperator::kOr, {order.at(2), order.at(tail)}),
  };
}

/// Renders rows as a C++ initializer, so a deliberate accounting change
/// can re-record the pinned constants from the failure message.
std::string Render(const std::vector<std::vector<uint64_t>>& rows) {
  std::string out = "{\n";
  for (const auto& row : rows) {
    out += "    {";
    for (std::size_t i = 0; i < row.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%lluull", i == 0 ? "" : ", ",
                    static_cast<unsigned long long>(row[i]));
      out += buf;
    }
    out += "},\n";
  }
  return out + "}";
}

TEST(DiskTierTest, ResidentSetPinsHottestStrictPrefix) {
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> terms = BuildAllLists(engine);
  ASSERT_GT(terms.size(), 4u);

  // Budget 0: everything spills. A budget-0 tier pins nothing and lays
  // every non-empty list out on the device.
  EXPECT_TRUE(DiskResidentLists::ResidentSet(engine.word_lists(),
                                             engine.inverted(), 0)
                  .empty());
  const DiskResidentLists all_spilled(engine.word_lists(),
                                      engine.phrase_file(), engine.inverted(),
                                      DiskTierOptions{});
  std::size_t non_empty = 0;
  for (TermId t : terms) {
    if (!engine.word_lists().list(t).empty()) ++non_empty;
  }
  EXPECT_EQ(all_spilled.num_resident(), 0u);
  EXPECT_EQ(all_spilled.resident_bytes(), 0u);
  EXPECT_EQ(all_spilled.num_spilled(), non_empty);
  EXPECT_EQ(all_spilled.spilled_bytes(), engine.word_lists().InMemoryBytes());

  // Budget covering every list: everything pinned.
  const uint64_t all_bytes = engine.word_lists().InMemoryBytes();
  EXPECT_EQ(DiskResidentLists::ResidentSet(engine.word_lists(),
                                           engine.inverted(), all_bytes)
                .size(),
            terms.size());

  // A partial budget pins exactly the strict prefix of the hotness
  // order: walk the order accumulating bytes; pinning must stop at the
  // first list that does not fit and everything after must spill.
  const std::vector<TermId> order = HotnessOrder(engine, terms);
  const uint64_t budget = all_bytes / 3;
  const auto resident = DiskResidentLists::ResidentSet(
      engine.word_lists(), engine.inverted(), budget);
  EXPECT_FALSE(resident.empty());
  EXPECT_LT(resident.size(), terms.size());
  uint64_t used = 0;
  bool stopped = false;
  for (TermId t : order) {
    const uint64_t bytes = engine.word_lists().ListBytes(t);
    if (!stopped && used + bytes <= budget) {
      used += bytes;
      EXPECT_TRUE(resident.contains(t)) << "hot term " << t << " not pinned";
    } else {
      stopped = true;  // cold tail: everything from here on spills
      EXPECT_FALSE(resident.contains(t)) << "cold term " << t << " pinned";
    }
  }
}

TEST(DiskTierTest, PlacementIsDeterministicAcrossIdenticalEngines) {
  MiningEngine a = MakeSmallEngine();
  MiningEngine b = MakeSmallEngine();
  BuildAllLists(a);
  BuildAllLists(b);
  const uint64_t budget = a.word_lists().InMemoryBytes() / 2;
  const auto ra =
      DiskResidentLists::ResidentSet(a.word_lists(), a.inverted(), budget);
  const auto rb =
      DiskResidentLists::ResidentSet(b.word_lists(), b.inverted(), budget);
  EXPECT_EQ(ra, rb);
  EXPECT_FALSE(ra.empty());
}

TEST(DiskTierTest, ResidentReadsChargeNothingSpilledReadsCharge) {
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> terms = BuildAllLists(engine);
  const std::vector<TermId> order = HotnessOrder(engine, terms);
  const TermId hottest = order.front();
  const TermId coldest = order.back();
  ASSERT_GT(engine.word_lists().list(hottest).size(), 0u);
  ASSERT_GT(engine.word_lists().list(coldest).size(), 0u);

  DiskTierOptions options;
  options.resident_budget_bytes = engine.word_lists().ListBytes(hottest);
  DiskResidentLists tier(engine.word_lists(), engine.phrase_file(),
                         engine.inverted(), options);
  ASSERT_TRUE(tier.resident(hottest));
  ASSERT_FALSE(tier.resident(coldest));
  EXPECT_GT(tier.resident_bytes(), 0u);
  EXPECT_GT(tier.spilled_bytes(), 0u);

  tier.ChargeListRead(tier.ListHandleOf(hottest), 0);
  EXPECT_EQ(tier.device().stats().page_requests, 0u);
  EXPECT_DOUBLE_EQ(tier.device().stats().cost_ms, 0.0);

  tier.ChargeListRead(tier.ListHandleOf(coldest), 0);
  EXPECT_GT(tier.device().stats().page_requests, 0u);
  EXPECT_GT(tier.device().stats().cost_ms, 0.0);
  EXPECT_EQ(tier.device().stats().bytes_read, kListEntryBytes);
}

TEST(DiskTierTest, ListHandlesChargeLikeThePlacement) {
  // A pinned list's handle is the pinned sentinel and its charges move
  // no counter; a spilled list's handle charges exactly one entry read
  // of its device range: one page request, 12 bytes, a cold seek, then a
  // cache hit on the re-read.
  MiningEngine engine = MakeSmallEngine();
  const std::vector<TermId> order =
      HotnessOrder(engine, BuildAllLists(engine));
  const TermId hottest = order.front();
  const TermId coldest = order.back();
  ASSERT_GT(engine.word_lists().list(coldest).size(), 0u);

  DiskTierOptions options;
  options.resident_budget_bytes = engine.word_lists().ListBytes(hottest);
  DiskResidentLists tier(engine.word_lists(), engine.phrase_file(),
                         engine.inverted(), options);
  const DiskResidentLists::ListHandle pinned = tier.ListHandleOf(hottest);
  const DiskResidentLists::ListHandle spilled = tier.ListHandleOf(coldest);
  EXPECT_EQ(pinned, DiskResidentLists::kPinnedList);
  EXPECT_NE(spilled, DiskResidentLists::kPinnedList);

  tier.ChargeListRead(pinned, 0);
  tier.ChargeListScan(pinned, 5);
  const DiskStats& stats = tier.device().stats();
  EXPECT_EQ(stats.page_requests, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.BlocksRead(), 0u);
  EXPECT_EQ(stats.cost_ms, 0.0);

  tier.ChargeListRead(spilled, 0);
  EXPECT_EQ(stats.page_requests, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.bytes_read, kListEntryBytes);
  EXPECT_EQ(stats.BlocksRead(), 1u);
  EXPECT_EQ(stats.Seeks(), 1u);
  EXPECT_GT(stats.cost_ms, 0.0);
  tier.ChargeListRead(spilled, 0);
  EXPECT_EQ(stats.page_requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.BlocksRead(), 1u);

  // A cancelled query's charges are free through a handle too.
  const CancelToken cancel = CancelToken::AfterMillis(-1.0);
  ASSERT_TRUE(cancel.Expired());
  tier.BeginQuery(&cancel);
  tier.ChargeListRead(spilled, 1);
  EXPECT_EQ(stats.page_requests, 2u);
}

TEST(DiskTierTest, EngineResultsIdenticalAcrossBudgets) {
  MiningEngineOptions options;
  options.disk_backed = true;
  options.disk_resident_budget = 0;
  MiningEngine engine = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(), options);
  const Query query = HeavyQuery(engine);

  const MineResult on_disk = engine.Mine(query, Algorithm::kNraDisk);
  EXPECT_GT(on_disk.disk_ms, 0.0);
  EXPECT_GT(on_disk.disk_io.blocks_read, 0u);
  EXPECT_GT(on_disk.disk_io.bytes, 0u);
  EXPECT_GE(on_disk.disk_io.blocks_read, on_disk.disk_io.seeks);

  engine.SetDiskResidentBudget(engine.word_lists().InMemoryBytes());
  const MineResult resident = engine.Mine(query, Algorithm::kNraDisk);
  const MineResult in_memory = engine.Mine(query, Algorithm::kNra);

  // Placement moves cost, never contents: bitwise-identical ranking.
  ASSERT_FALSE(on_disk.phrases.empty());
  EXPECT_EQ(testing::RankedSignature(on_disk),
            testing::RankedSignature(resident));
  EXPECT_EQ(testing::RankedSignature(on_disk),
            testing::RankedSignature(in_memory));
  // All-resident charges only the final phrase lookups; the list reads
  // that dominated the budget-0 run are gone.
  EXPECT_LT(resident.disk_ms, on_disk.disk_ms);
  EXPECT_LT(resident.disk_io.blocks_read, on_disk.disk_io.blocks_read);
}

TEST(DiskTierTest, EngineLevelTierSurvivesShardedBuild) {
  // A tier declared only on the embedded engine options must not be
  // silently dropped by ShardedEngine::Build's fleet-level switches
  // (Build merges the two surfaces, set-wins).
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.extractor.min_df = 3;
  options.engine.disk_backed = true;
  options.engine.disk_resident_budget = 0;
  ShardedEngine sharded = ShardedEngine::Build(
      testing::MakeSmallSyntheticCorpus(300), std::move(options));
  EXPECT_TRUE(sharded.options().disk_backed);
  EXPECT_TRUE(sharded.options().engine.disk_backed);

  const Query query = HeavyQuery(sharded.shard(0));
  const ShardedMineResult mined =
      sharded.Mine(query, Algorithm::kNraDisk, MineOptions{.k = 5});
  EXPECT_GT(mined.result.disk_io.blocks_read, 0u);
  EXPECT_GT(mined.result.disk_ms, 0.0);
}

TEST(DiskTierTest, PlannerRoutesDiskBackedEngineToNraDisk) {
  // Identical corpora, one engine disk-backed: the planner must offer
  // kNraDisk (never bare kNra) on the disk-backed engine and kNra on the
  // in-memory one, with placement surfaced in the gathered inputs.
  MiningEngineOptions disk_options;
  disk_options.disk_backed = true;
  disk_options.disk_resident_budget = 0;
  MiningEngine disk_engine = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(), disk_options);
  MiningEngine mem_engine =
      MiningEngine::Build(testing::MakeSmallSyntheticCorpus());

  const Query query = HeavyQuery(disk_engine);
  disk_engine.EnsureWordLists(query.terms);
  mem_engine.EnsureWordLists(query.terms);

  auto gather = [&](const MiningEngine& engine) {
    return CostPlanner::GatherInputs(engine, query, MineOptions{},
                                     engine.delta_snapshot());
  };
  auto plan = [&](const MiningEngine& engine) {
    return CostPlanner::PlanFromInputs(gather(engine), PlannerOptions{});
  };

  const PlannerInputs disk_inputs = gather(disk_engine);
  EXPECT_TRUE(disk_inputs.disk_backed);
  for (const TermPlanStats& t : disk_inputs.terms) {
    EXPECT_TRUE(t.on_disk) << "budget 0 must spill term " << t.term;
    EXPECT_GT(t.disk_blocks, 0u);
  }
  const PlannerInputs mem_inputs = gather(mem_engine);
  EXPECT_FALSE(mem_inputs.disk_backed);
  for (const TermPlanStats& t : mem_inputs.terms) {
    EXPECT_FALSE(t.on_disk);
    EXPECT_EQ(t.disk_blocks, 0u);
  }

  const PlanDecision disk_plan = plan(disk_engine);
  const PlanDecision mem_plan = plan(mem_engine);
  for (const auto& [algorithm, cost] : disk_plan.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNra)
        << "disk-backed engines must cost the NRA candidate as kNraDisk";
  }
  for (const auto& [algorithm, cost] : mem_plan.estimated_costs) {
    EXPECT_NE(algorithm, Algorithm::kNraDisk);
  }
  // Pinning everything removes the I/O terms: the kNraDisk candidate's
  // cost collapses to the in-memory kNra cost (same model, new label).
  disk_engine.SetDiskResidentBudget(
      disk_engine.word_lists().InMemoryBytes());
  const PlanDecision pinned_plan = plan(disk_engine);
  double pinned_nra = -1.0, mem_nra = -1.0, spilled_nra = -1.0;
  for (const auto& [algorithm, cost] : pinned_plan.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) pinned_nra = cost;
  }
  for (const auto& [algorithm, cost] : mem_plan.estimated_costs) {
    if (algorithm == Algorithm::kNra) mem_nra = cost;
  }
  for (const auto& [algorithm, cost] : disk_plan.estimated_costs) {
    if (algorithm == Algorithm::kNraDisk) spilled_nra = cost;
  }
  ASSERT_GE(pinned_nra, 0.0);
  ASSERT_GE(mem_nra, 0.0);
  ASSERT_GE(spilled_nra, 0.0);
  EXPECT_DOUBLE_EQ(pinned_nra, mem_nra);
  EXPECT_GT(spilled_nra, pinned_nra);
}

TEST(DiskTierTest, DiskAccountingIsPinned) {
  // The disk accounting as recorded before the per-term handles and the
  // first-fetch clock: a 4-shard fleet persisted and reopened on
  // MappedDisk at half its list bytes, plus a SimulatedDisk engine at
  // budget 0, run a fixed kNraDisk query set; the ranked output, every
  // leg's blocks/seeks/bytes and the devices' page_requests/cache_hits
  // must stay exactly these constants.
  const std::string prefix = ::testing::TempDir() + "/disk_pin";
  constexpr std::size_t kShards = 4;
  ShardedEngineOptions options;
  options.num_shards = kShards;
  options.engine.extractor.min_df = 3;
  ShardedEngine built = ShardedEngine::Build(
      testing::MakeSmallSyntheticCorpus(600), options);
  const std::vector<Query> queries = PinnedQueries(built.shard(0));
  uint64_t list_bytes = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const Query& q : queries) built.shard(s).EnsureWordLists(q.terms);
    list_bytes += built.shard(s).word_lists().InMemoryBytes();
  }
  ASSERT_TRUE(built.SaveToFiles(prefix).ok());
  options.disk_backed = true;
  options.disk_budget_per_shard = list_bytes / kShards / 2;
  auto loaded = ShardedEngine::LoadFromFiles(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ShardedEngine& fleet = loaded.value();

  MiningEngineOptions sim_options;
  sim_options.disk_backed = true;
  sim_options.disk_resident_budget = 0;
  MiningEngine sim = MiningEngine::Build(
      testing::MakeSmallSyntheticCorpus(600), sim_options);

  const MineOptions mine{.k = 10};
  std::vector<std::vector<uint64_t>> fleet_rows, mapped_rows, sim_rows;
  for (const Query& q : queries) {
    const ShardedMineResult m = fleet.Mine(q, Algorithm::kNraDisk, mine);
    ASSERT_TRUE(m.result.status.ok());
    ASSERT_EQ(m.shard_disk_io.size(), kShards);
    std::vector<uint64_t> row{SignatureHash(m.result)};
    for (const DiskIoStats& io : m.shard_disk_io) {
      row.insert(row.end(), {io.blocks_read, io.seeks, io.bytes});
    }
    fleet_rows.push_back(std::move(row));

    const MineResult r = sim.Mine(q, Algorithm::kNraDisk, mine);
    ASSERT_TRUE(r.status.ok());
    sim_rows.push_back({SignatureHash(r), r.disk_io.blocks_read,
                        r.disk_io.seeks, r.disk_io.bytes});
  }

  // Device-level counters through the same tier + miner the engines
  // run, one tier per shard over a MappedDisk on the shard's own file.
  for (std::size_t s = 0; s < kShards; ++s) {
    const MiningEngine& shard = fleet.shard(s);
    ASSERT_NE(shard.index_file(), nullptr);
    DiskResidentLists tier(
        shard.word_lists(), shard.phrase_file(), shard.inverted(),
        DiskTierOptions{.resident_budget_bytes = options.disk_budget_per_shard},
        std::make_unique<MappedDisk>(shard.index_file()));
    NraMiner miner(&tier, shard.dict());
    std::vector<uint64_t> row;
    for (const Query& q : queries) {
      ASSERT_TRUE(miner.Mine(q, mine).status.ok());
      row.insert(row.end(), {tier.device().stats().page_requests,
                             tier.device().stats().cache_hits});
    }
    mapped_rows.push_back(std::move(row));
  }
  {
    DiskResidentLists tier(sim.word_lists(), sim.phrase_file(),
                           sim.inverted(), DiskTierOptions{});
    NraMiner miner(&tier, sim.dict());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(miner.Mine(queries[i], mine).status.ok());
      sim_rows[i].insert(sim_rows[i].end(),
                         {tier.device().stats().page_requests,
                          tier.device().stats().cache_hits});
    }
  }

  // Per query: signature hash, then each shard leg's blocks, seeks, bytes.
  const std::vector<std::vector<uint64_t>> kFleet = {
      {3632234071467416642ull, 1, 1, 1536, 1, 1, 1536, 1, 1, 1536, 1, 1, 1536},
      {16093213829671392946ull, 2, 1, 3420, 4, 1, 9756, 3, 1, 5640, 2, 1,
       5328},
      {17005645516292919761ull, 5, 3, 9720, 7, 6, 14484, 6, 4, 11112, 5, 3,
       9564},
      {8716254285476824970ull, 13, 3, 42108, 12, 3, 42372, 12, 3, 41052, 2, 1,
       3072},
  };
  // Per shard: page_requests, cache_hits of each query in turn.
  const std::vector<std::vector<uint64_t>> kMapped = {
      {138, 136, 139, 136, 821, 816, 3525, 3504},
      {138, 136, 139, 136, 1220, 1213, 3547, 3530},
      {138, 136, 481, 473, 937, 923, 3438, 3416},
      {138, 136, 138, 135, 808, 795, 266, 264},
  };
  // Per query: signature hash, blocks, seeks, bytes, page_requests,
  // cache_hits.
  const std::vector<std::vector<uint64_t>> kSim = {
      {15124225530793895362ull, 4, 3, 3572, 266, 263},
      {6213530580003485206ull, 5, 3, 41312, 3411, 3408},
      {8739915307777904010ull, 6, 4, 24452, 2006, 2001},
      {764575753161774576ull, 6, 5, 34280, 2825, 2821},
  };
  EXPECT_EQ(fleet_rows, kFleet) << Render(fleet_rows);
  EXPECT_EQ(mapped_rows, kMapped) << Render(mapped_rows);
  EXPECT_EQ(sim_rows, kSim) << Render(sim_rows);
  std::remove(ShardedEngine::FleetManifestPath(prefix).c_str());
  for (std::size_t s = 0; s < kShards; ++s) {
    std::remove(ShardedEngine::ShardFilePath(prefix, s).c_str());
  }
}

}  // namespace
}  // namespace phrasemine
