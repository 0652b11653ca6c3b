// Deadline propagation and cooperative cancellation: CancelToken
// semantics, miner-level aborts (every miner and every scanning fleet
// leg) with partial accounting and trace markers, bounded cancellation
// latency (the "< 2 check intervals" contract), determinism when the
// deadline never fires, and the service's deadline surface end to end.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "test_util.h"
#include "testing/failpoint.h"

namespace phrasemine {
namespace {

using testing::MakeSmallEngine;
using testing::MakeSmallSyntheticCorpus;
using testing::RankedSignature;

/// Depth-first search for a counter anywhere in a span tree.
bool FindCounter(const TraceSpan* span, const std::string& name,
                 double* value) {
  if (span == nullptr) return false;
  for (const auto& [n, v] : span->counters) {
    if (n == name) {
      *value = v;
      return true;
    }
  }
  for (const auto& child : span->children) {
    if (FindCounter(child.get(), name, value)) return true;
  }
  return false;
}

/// A two-term OR query over the engine's highest-df terms: long lists, so
/// an un-cancelled mine does real traversal work.
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

TEST(CancelTokenTest, Semantics) {
  CancelToken none;  // never expires on its own
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.Expired());
  EXPECT_FALSE(none.cancelled());
  EXPECT_GT(none.remaining_ms(), 1e12);
  none.Cancel();
  EXPECT_TRUE(none.cancelled());
  EXPECT_TRUE(none.Expired());
  EXPECT_EQ(none.remaining_ms(), 0.0);

  CancelToken past = CancelToken::AfterMillis(-1.0);
  EXPECT_TRUE(past.has_deadline());
  EXPECT_LT(past.remaining_ms(), 0.0);
  // The flag is not set until a full check latches it...
  EXPECT_FALSE(past.cancelled());
  // ...and Expired() is that check: it observes the past deadline and
  // publishes the verdict to flag-only readers (sibling shard legs).
  EXPECT_TRUE(past.Expired());
  EXPECT_TRUE(past.cancelled());

  CancelToken future = CancelToken::AfterMillis(60'000.0);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.remaining_ms(), 1'000.0);

  EXPECT_FALSE(CancelRequested(nullptr));
  EXPECT_FALSE(CancelExpired(nullptr));
}

TEST(DeadlineTest, ExpiredTokenAbortsNraWithTraceMarkers) {
  MiningEngine engine = MakeSmallEngine();
  const Query query = HeavyQuery(engine);
  const CancelToken expired = CancelToken::AfterMillis(-1.0);
  MineOptions options;
  options.trace = true;
  options.cancel = &expired;
  const MineResult aborted = engine.Mine(query, Algorithm::kNra, options);
  EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(aborted.entries_read, 0u);  // expired before the traversal
  ASSERT_NE(aborted.trace, nullptr);
  double cancelled = 0.0;
  EXPECT_TRUE(FindCounter(aborted.trace.get(), "cancelled", &cancelled));
  EXPECT_EQ(cancelled, 1.0);
  double at_cancel = -1.0;
  EXPECT_TRUE(
      FindCounter(aborted.trace.get(), "entries_at_cancel", &at_cancel));
  EXPECT_EQ(at_cancel, 0.0);

  // The same engine serves the same query normally afterwards.
  const MineResult ok = engine.Mine(query, Algorithm::kNra, MineOptions{});
  EXPECT_TRUE(ok.status.ok());
  EXPECT_FALSE(ok.phrases.empty());
}

TEST(DeadlineTest, ExpiredTokenAbortsSmj) {
  MiningEngine engine = MakeSmallEngine();
  const Query query = HeavyQuery(engine);
  const CancelToken expired = CancelToken::AfterMillis(-1.0);
  MineOptions options;
  options.trace = true;
  options.cancel = &expired;
  const MineResult aborted = engine.Mine(query, Algorithm::kSmj, options);
  EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);
  double cancelled = 0.0;
  EXPECT_TRUE(FindCounter(aborted.trace.get(), "cancelled", &cancelled));
}

TEST(DeadlineTest, UnfiredDeadlineIsBitwiseInvisible) {
  // A token that never fires must not change one byte of ranked output on
  // any list-based path -- the polls are branches, not behavior.
  MiningEngine engine = MakeSmallEngine();
  const Query query = HeavyQuery(engine);
  const CancelToken generous = CancelToken::AfterMillis(600'000.0);
  for (const Algorithm algorithm : {Algorithm::kNra, Algorithm::kSmj}) {
    MineOptions timed;
    timed.cancel = &generous;
    const MineResult a = engine.Mine(query, algorithm, MineOptions{});
    const MineResult b = engine.Mine(query, algorithm, timed);
    EXPECT_TRUE(b.status.ok());
    EXPECT_EQ(RankedSignature(a), RankedSignature(b))
        << AlgorithmName(algorithm);
  }
}

TEST(DeadlineTest, NraPollKeepsItsCadenceAfterAdmissionStops) {
  // Once line 11 of Algorithm 1 stops admitting new candidates, most
  // reads touch no candidate and maintenance runs rarely. The deadline
  // poll counts every read, so it still runs once per nra_batch_size
  // reads, and a deadline that fires after admission closed still stops
  // the traversal within two batches.
  MiningEngine engine = MakeSmallEngine();
  constexpr std::size_t kBatch = 16;
  MineOptions options;
  options.trace = true;
  options.nra_batch_size = kBatch;

  // The query among pairs of the highest-df terms that reads longest
  // after admission closed.
  std::vector<TermId> terms;
  for (TermId t = 0; t < engine.inverted().num_terms(); ++t) {
    if (engine.inverted().df(t) > 0) terms.push_back(t);
  }
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    return engine.inverted().df(a) > engine.inverted().df(b);
  });
  Query query;
  query.op = QueryOperator::kOr;
  double closed_at = 0.0;
  std::size_t entries_read = 0;
  for (std::size_t i = 0; i < 8 && i < terms.size(); ++i) {
    for (std::size_t j = i + 1; j < 8 && j < terms.size(); ++j) {
      Query pair;
      pair.op = QueryOperator::kOr;
      pair.terms = {std::min(terms[i], terms[j]), std::max(terms[i], terms[j])};
      const MineResult r = engine.Mine(pair, Algorithm::kNra, options);
      double closed = 0.0;
      if (!FindCounter(r.trace.get(), "admission_closed_at", &closed)) continue;
      if (static_cast<double>(r.entries_read) - closed >
          static_cast<double>(entries_read) - closed_at) {
        query = pair;
        closed_at = closed;
        entries_read = r.entries_read;
      }
    }
  }
  // The case under test: the traversal runs on for many batches after
  // admission closed.
  ASSERT_GT(static_cast<double>(entries_read), closed_at + 8.0 * kBatch);

  // A pass-through arming counts the polls of an untimed mine.
  failpoint::ResetHitCounts();
  failpoint::Arm("miner.nra.poll", {});
  const MineResult full = engine.Mine(query, Algorithm::kNra, options);
  failpoint::DisarmAll();
  ASSERT_TRUE(full.status.ok());
  ASSERT_EQ(full.entries_read, entries_read);
  const uint64_t polls = failpoint::HitCount("miner.nra.poll");
  EXPECT_EQ(polls, full.entries_read / kBatch);

  // Poll number `skip` (after admission closed) outlives the deadline.
  const uint64_t skip = full.entries_read / kBatch - 2;
  ASSERT_GT(static_cast<double>(skip * kBatch), closed_at);
  failpoint::Arm("miner.nra.poll",
                 {.delay_ms = 100.0, .max_hits = 1, .skip_first = skip});
  const CancelToken deadline = CancelToken::AfterMillis(50.0);
  MineOptions timed = options;
  timed.cancel = &deadline;
  const MineResult aborted = engine.Mine(query, Algorithm::kNra, timed);
  failpoint::DisarmAll();
  EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);
  double at_cancel = -1.0;
  ASSERT_TRUE(
      FindCounter(aborted.trace.get(), "entries_at_cancel", &at_cancel));
  // The deadline fired during the read that ended batch skip + 1.
  const double fired_at = static_cast<double>((skip + 1) * kBatch);
  EXPECT_GE(at_cancel, fired_at);
  EXPECT_LT(at_cancel, fired_at + 2.0 * kBatch);
}

TEST(DeadlineTest, CountMinersPollTheToken) {
  // The monolithic count miners poll every kCancelDocStride
  // sub-collection documents: a deadline that fires mid-scan stops the
  // forward scan within two poll intervals, and the abort leaves no dirty
  // scratch counts behind -- the next mine of the same query is bitwise
  // the one before it, as is a mine under a token that never fires.
  MiningEngine engine = MakeSmallEngine();
  const Query query = HeavyQuery(engine);
  // A poll interval reads at most kCancelDocStride full forward lists.
  std::size_t longest_doc = 0;
  for (DocId d = 0; d < engine.forward().num_docs(); ++d) {
    longest_doc = std::max(longest_doc, engine.forward().stored(d).size());
  }
  const double interval =
      static_cast<double>(kCancelDocStride * longest_doc);
  // Rank every counted phrase, so one miscounted phrase shows.
  const MineOptions all{.k = 1'000'000};
  for (const Algorithm algorithm : {Algorithm::kExact, Algorithm::kGm}) {
    const char* name = AlgorithmName(algorithm);
    const MineResult before = engine.Mine(query, algorithm, all);
    ASSERT_TRUE(before.status.ok()) << name;
    ASSERT_FALSE(before.phrases.empty()) << name;
    // The scan spans more than two intervals, so the bound below bites.
    ASSERT_GT(before.subcollection_size, 2 * kCancelDocStride) << name;

    // Polls 0 and 1 pass at once; poll 2 stalls past the deadline, so the
    // scan stops with two intervals' counts in its scratch.
    failpoint::Arm("miner.count.poll",
                   {.delay_ms = 100.0, .max_hits = 1, .skip_first = 2});
    const CancelToken deadline = CancelToken::AfterMillis(50.0);
    MineOptions timed = all;
    timed.cancel = &deadline;
    const MineResult aborted = engine.Mine(query, algorithm, timed);
    failpoint::DisarmAll();
    EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded) << name;
    EXPECT_GT(aborted.entries_read, 0u) << name;
    EXPECT_LE(static_cast<double>(aborted.entries_read), 2.0 * interval)
        << name;
    EXPECT_TRUE(aborted.phrases.empty()) << name;

    const MineResult after = engine.Mine(query, algorithm, all);
    EXPECT_EQ(RankedSignature(before), RankedSignature(after)) << name;
    EXPECT_EQ(before.entries_read, after.entries_read) << name;

    const CancelToken generous = CancelToken::AfterMillis(600'000.0);
    MineOptions untimed = all;
    untimed.cancel = &generous;
    const MineResult polled = engine.Mine(query, algorithm, untimed);
    EXPECT_TRUE(polled.status.ok()) << name;
    EXPECT_EQ(RankedSignature(before), RankedSignature(polled)) << name;
    EXPECT_EQ(before.entries_read, polled.entries_read) << name;
  }
}

TEST(DeadlineTest, SimitsisPollsTheToken) {
  // Simitsis polls once kCancelDocStride posting-list documents were read
  // since its last poll: a deadline that fires mid-scan stops phase 1
  // within two poll intervals and ranks nothing, and a token that never
  // fires changes nothing.
  MiningEngine engine = MakeSmallEngine();
  const Query query = HeavyQuery(engine);
  // A poll interval reads under kCancelDocStride documents plus the one
  // posting list that crosses the stride.
  uint32_t longest_list = 0;
  for (PhraseId p = 0; p < engine.dict().size(); ++p) {
    longest_list = std::max(longest_list, engine.dict().df(p));
  }
  const double interval =
      static_cast<double>(kCancelDocStride + longest_list);
  // Rank every scanned phrase, so phase 1 never stops early.
  const MineOptions all{.k = 1'000'000};
  const MineResult before = engine.Mine(query, Algorithm::kSimitsis, all);
  ASSERT_TRUE(before.status.ok());
  ASSERT_FALSE(before.phrases.empty());
  ASSERT_GT(static_cast<double>(before.entries_read), 2.0 * interval);

  // Polls 0 and 1 pass at once; poll 2 stalls past the deadline.
  failpoint::Arm("miner.count.poll",
                 {.delay_ms = 100.0, .max_hits = 1, .skip_first = 2});
  const CancelToken deadline = CancelToken::AfterMillis(50.0);
  MineOptions timed = all;
  timed.cancel = &deadline;
  const MineResult aborted = engine.Mine(query, Algorithm::kSimitsis, timed);
  failpoint::DisarmAll();
  EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(aborted.entries_read, 0u);
  EXPECT_LE(static_cast<double>(aborted.entries_read), 2.0 * interval);
  EXPECT_TRUE(aborted.phrases.empty());

  const CancelToken generous = CancelToken::AfterMillis(600'000.0);
  MineOptions untimed = all;
  untimed.cancel = &generous;
  const MineResult polled = engine.Mine(query, Algorithm::kSimitsis, untimed);
  EXPECT_TRUE(polled.status.ok());
  EXPECT_EQ(RankedSignature(before), RankedSignature(polled));
  EXPECT_EQ(before.entries_read, polled.entries_read);
}

TEST(DeadlineTest, FleetCountFillPollsTheToken) {
  // The count top-k' fill leg (GM and Simitsis on a fleet) polls every
  // kCancelDocStride sub-collection documents of its forward scan. The
  // site fires a stall on every poll after the first two: the deadline
  // expires inside the third poll, and a scan that stops there hits the
  // site exactly once -- no further document interval is read.
  ShardedEngineOptions options;
  options.num_shards = 1;  // one fill leg: the poll sequence is ordered
  options.engine.extractor.min_df = 3;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(700), std::move(options));
  const Query query = HeavyQuery(sharded.shard(0));
  for (const Algorithm algorithm : {Algorithm::kGm, Algorithm::kSimitsis}) {
    const char* name = AlgorithmName(algorithm);
    // Also warms the shard's lazily built miner structures.
    const ShardedMineResult plain = sharded.Mine(query, algorithm);
    ASSERT_TRUE(plain.result.status.ok()) << name;
    ASSERT_FALSE(plain.result.phrases.empty()) << name;
    ASSERT_GT(plain.result.subcollection_size, 2 * kCancelDocStride) << name;

    failpoint::ResetHitCounts();
    failpoint::Arm("shard.fill.poll", {.delay_ms = 200.0, .skip_first = 2});
    const CancelToken deadline = CancelToken::AfterMillis(100.0);
    MineOptions timed;
    timed.cancel = &deadline;
    const ShardedMineResult aborted = sharded.Mine(query, algorithm, timed);
    const uint64_t stalls = failpoint::HitCount("shard.fill.poll");
    failpoint::DisarmAll();
    EXPECT_EQ(aborted.result.status.code(), StatusCode::kDeadlineExceeded)
        << name;
    EXPECT_EQ(stalls, 1u) << name;
    EXPECT_TRUE(aborted.result.phrases.empty()) << name;

    // A token that never fires leaves the merged ranking bitwise as is.
    const CancelToken generous = CancelToken::AfterMillis(600'000.0);
    MineOptions untimed;
    untimed.cancel = &generous;
    const ShardedMineResult polled = sharded.Mine(query, algorithm, untimed);
    EXPECT_TRUE(polled.result.status.ok()) << name;
    EXPECT_EQ(RankedSignature(plain.result), RankedSignature(polled.result))
        << name;
  }
}

/// The acceptance bound: an expiring deadline stops a *running* sharded
/// kNraDisk mine within two block-check intervals per shard leg, asserted
/// via the trace's entries_at_cancel counter. A latency failpoint at
/// `device_site` makes every spilled read slow, so a short deadline
/// reliably fires inside the first NRA batch and the batch-cadence check
/// must catch it at the next boundary.
void ExpectRunningMineCancelsWithinTwoBatches(ShardedEngine& sharded,
                                              const Query& query,
                                              const std::string& device_site) {
  constexpr std::size_t kBatch = 64;
  failpoint::Arm(device_site, {.delay_ms = 0.5});
  const CancelToken deadline = CancelToken::AfterMillis(1.0);
  MineOptions mine_options;
  mine_options.trace = true;
  mine_options.nra_batch_size = kBatch;
  mine_options.cancel = &deadline;
  const ShardedMineResult aborted =
      sharded.Mine(query, Algorithm::kNraDisk, mine_options);
  failpoint::DisarmAll();

  EXPECT_EQ(aborted.result.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_NE(aborted.result.trace, nullptr);
  double cancelled = 0.0;
  EXPECT_TRUE(
      FindCounter(aborted.result.trace.get(), "cancelled", &cancelled));
  EXPECT_EQ(cancelled, 1.0);
  double at_cancel = -1.0;
  ASSERT_TRUE(FindCounter(aborted.result.trace.get(), "entries_at_cancel",
                          &at_cancel));
  // Each shard leg stops within two batch boundaries of the deadline
  // firing; the counter aggregates the legs.
  EXPECT_LE(at_cancel,
            static_cast<double>(2 * kBatch * sharded.num_shards()));

  // Faults off: the same fleet serves the same query to completion.
  const ShardedMineResult ok =
      sharded.Mine(query, Algorithm::kNraDisk, MineOptions{});
  EXPECT_TRUE(ok.result.status.ok());
  EXPECT_FALSE(ok.result.phrases.empty());
  EXPECT_GT(ok.result.disk_io.blocks_read, 0u);
}

TEST(DeadlineTest, RunningShardedMineCancelsWithinTwoBatches) {
  // Simulated devices, budget 0: everything spills.
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.disk_backed = true;
  options.disk_budget_per_shard = 0;
  options.engine.extractor.min_df = 3;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(700), std::move(options));
  ExpectRunningMineCancelsWithinTwoBatches(
      sharded, HeavyQuery(sharded.shard(0)), "disk.sim.read");
}

TEST(DeadlineTest, RunningMappedFleetMineCancelsWithinTwoBatches) {
  // The same bound over a fleet reopened from its index files, whose
  // tiers measure real mapped reads (MappedDisk) through per-term list
  // handles, budget 0.
  const std::string prefix = ::testing::TempDir() + "/deadline_mapped";
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.extractor.min_df = 3;
  ShardedEngine built =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(700), options);
  const Query query = HeavyQuery(built.shard(0));
  for (std::size_t s = 0; s < built.num_shards(); ++s) {
    built.shard(s).EnsureWordLists(query.terms);
  }
  ASSERT_TRUE(built.SaveToFiles(prefix).ok());
  options.disk_backed = true;
  options.disk_budget_per_shard = 0;
  auto loaded = ShardedEngine::LoadFromFiles(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ShardedEngine& sharded = loaded.value();
  ASSERT_NE(sharded.shard(0).index_file(), nullptr);
  ExpectRunningMineCancelsWithinTwoBatches(sharded, query, "disk.mapped.read");

  std::remove(ShardedEngine::FleetManifestPath(prefix).c_str());
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    std::remove(ShardedEngine::ShardFilePath(prefix, s).c_str());
  }
}

/// True when the span tree holds a span with this name.
bool HasSpan(const TraceSpan* span, const std::string& name) {
  if (span == nullptr) return false;
  if (span->name == name) return true;
  for (const auto& child : span->children) {
    if (HasSpan(child.get(), name)) return true;
  }
  return false;
}

TEST(DeadlineTest, RunningExhaustiveFleetLegsCancel) {
  // The exhaustive legs (Exact's sub-collection forward scan, SMJ's full
  // word-list union) poll the token too: a straggling shard whose
  // deadline fires before its scan starts stops within two poll
  // intervals -- 64 sub-collection documents or 1024 folded list entries
  // -- instead of finishing the scan.
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.extractor.min_df = 3;
  ShardedEngine sharded =
      ShardedEngine::Build(MakeSmallSyntheticCorpus(700), std::move(options));
  const std::size_t n = sharded.num_shards();
  const Query query = HeavyQuery(sharded.shard(0));

  // A count interval of 64 documents reads at most 64 forward lists.
  std::size_t longest_doc = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const MiningEngine& shard = sharded.shard(s);
    for (DocId d = 0; d < shard.forward().num_docs(); ++d) {
      longest_doc = std::max(longest_doc, shard.forward().stored(d).size());
    }
  }
  struct Leg {
    Algorithm algorithm;
    double entries_per_interval;
  };
  for (const Leg leg :
       {Leg{Algorithm::kExact, 64.0 * static_cast<double>(longest_doc)},
        Leg{Algorithm::kSmj, 1024.0}}) {
    const char* name = AlgorithmName(leg.algorithm);
    for (std::size_t s = 0; s < n; ++s) {
      failpoint::Arm("shard.scatter." + std::to_string(s),
                     {.delay_ms = 50.0});
    }
    const CancelToken deadline = CancelToken::AfterMillis(10.0);
    MineOptions timed;
    timed.trace = true;
    timed.cancel = &deadline;
    const ShardedMineResult aborted =
        sharded.Mine(query, leg.algorithm, timed);
    failpoint::DisarmAll();

    EXPECT_EQ(aborted.result.status.code(), StatusCode::kDeadlineExceeded)
        << name;
    ASSERT_NE(aborted.result.trace, nullptr) << name;
    // The legs ran (the abort is not the pre-scatter check).
    EXPECT_TRUE(HasSpan(aborted.result.trace.get(), "scatter")) << name;
    double cancelled = 0.0;
    EXPECT_TRUE(FindCounter(aborted.result.trace.get(), "cancelled",
                            &cancelled))
        << name;
    EXPECT_EQ(cancelled, 1.0) << name;
    double at_cancel = -1.0;
    ASSERT_TRUE(FindCounter(aborted.result.trace.get(), "entries_at_cancel",
                            &at_cancel))
        << name;
    EXPECT_LE(at_cancel,
              2.0 * leg.entries_per_interval * static_cast<double>(n))
        << name;

    // A token that never fires leaves the merged output bitwise as is.
    const CancelToken generous = CancelToken::AfterMillis(600'000.0);
    MineOptions untimed;
    untimed.cancel = &generous;
    const ShardedMineResult plain = sharded.Mine(query, leg.algorithm);
    const ShardedMineResult polled =
        sharded.Mine(query, leg.algorithm, untimed);
    EXPECT_TRUE(polled.result.status.ok()) << name;
    EXPECT_FALSE(plain.result.phrases.empty()) << name;
    EXPECT_EQ(RankedSignature(plain.result), RankedSignature(polled.result))
        << name;
    EXPECT_EQ(plain.result.entries_read, polled.result.entries_read) << name;
  }
}

TEST(DeadlineTest, ServiceDeadlineExpiresMidExecution) {
  // End to end through the front door: a deadline that fires during a
  // slow disk-backed mine surfaces as ServiceReply::status ==
  // DeadlineExceeded, bumps the metric, and never caches the partial.
  MiningEngineOptions engine_options;
  engine_options.extractor.min_df = 3;
  engine_options.disk_backed = true;
  engine_options.disk_resident_budget = 0;
  MiningEngine engine =
      MiningEngine::Build(MakeSmallSyntheticCorpus(700), engine_options);
  PhraseService service(&engine, {});
  const Query query = HeavyQuery(engine);

  failpoint::Arm("disk.sim.read", {.delay_ms = 0.5});
  ServiceRequest request{query, MineOptions{}, Algorithm::kNraDisk};
  request.deadline_ms = 5.0;
  const ServiceReply slow = service.MineSync(request);
  failpoint::DisarmAll();
  EXPECT_EQ(slow.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);

  // The partial was not cached: the same request without a deadline now
  // executes (no cache hit) and completes.
  const ServiceReply replay = service.MineSync(
      ServiceRequest{query, MineOptions{}, Algorithm::kNraDisk});
  EXPECT_TRUE(replay.status.ok()) << replay.status.ToString();
  EXPECT_FALSE(replay.result_cache_hit);
  EXPECT_FALSE(replay.result.phrases.empty());
}

}  // namespace
}  // namespace phrasemine
