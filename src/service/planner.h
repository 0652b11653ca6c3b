#ifndef PHRASEMINE_SERVICE_PLANNER_H_
#define PHRASEMINE_SERVICE_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/miner.h"
#include "core/query.h"

namespace phrasemine {

/// Per-term statistics the planner based its decision on.
struct TermPlanStats {
  TermId term = 0;
  /// Document frequency |docs(q)| from the inverted index.
  uint32_t df = 0;
  /// True when the term's score-ordered word list already exists in the
  /// engine's lazy index, i.e. no build cost applies.
  bool list_built = false;
  /// Actual list length when built, otherwise the planner's estimate.
  std::size_t list_length = 0;
  /// Disk-backed engines only: true when this term's list is (predicted)
  /// spilled past the resident budget, i.e. reads charge device I/O.
  /// Always false when PlannerInputs::disk_backed is false.
  bool on_disk = false;
  /// Device blocks the full spilled list occupies (packed 12-byte
  /// entries over the tier's block size); 0 when resident or in-memory.
  uint64_t disk_blocks = 0;
  /// Observed queries naming this term, from the engine's installed
  /// popularity snapshot (MiningEngine::SetTermPopularity); 0 when no
  /// feedback is installed or the term was never queried. This is the
  /// prior behind the on_disk prediction above -- the spill policy pins
  /// by observed count once a snapshot is installed -- surfaced here so
  /// plan audits show *why* a hot term stopped charging device I/O.
  uint64_t observed_queries = 0;
};

/// The planner's explainable output: the chosen algorithm plus everything
/// needed to audit the choice -- per-term stats, the sub-collection
/// estimate, the modeled cost of every candidate, and a one-line reason.
struct PlanDecision {
  Algorithm algorithm = Algorithm::kGm;
  QueryOperator op = QueryOperator::kAnd;
  std::size_t k = 0;
  /// Estimated |D'| under the query operator (independence assumption for
  /// AND, truncated sum for OR).
  std::size_t estimated_subcollection = 0;
  std::vector<TermPlanStats> terms;
  /// Modeled cost (abstract "entries touched" units) per candidate
  /// algorithm, in the order they were evaluated.
  std::vector<std::pair<Algorithm, double>> estimated_costs;
  /// Human-readable justification, e.g. "cost: NRA cheapest (1.2e4)".
  std::string reason;

  /// Renders a compact single-line explanation for logs.
  std::string ToString() const;
};

/// Cost-model knobs. The absolute numbers only matter relative to each
/// other: the model ranks algorithms, it does not predict wall-clock time.
struct PlannerOptions {
  /// When false the planner never picks an approximate list-based method
  /// (NRA/SMJ); results then always match ExactMiner.
  bool allow_approximate = true;
  /// Sub-collections at or below this size go to Exact: scanning a handful
  /// of forward lists beats any index machinery.
  std::size_t exact_subcollection_threshold = 16;
  /// Expected fraction of the word lists NRA traverses before its early
  /// termination fires, at k = 1 (Figure 11 shape).
  double nra_traversal_fraction = 0.20;
  /// Traversal growth per unit of k: deeper result lists delay NRA's
  /// stopping condition.
  double nra_k_penalty = 0.02;
  /// Per-entry cost multipliers: NRA maintains a candidate hash and bounds
  /// per entry, SMJ only merges, GM scans forward lists linearly.
  double nra_entry_cost = 2.0;
  double smj_entry_cost = 1.0;
  double gm_entry_cost = 1.0;
  /// Exact uses the uncompressed forward index and recomputes supports.
  double exact_entry_cost = 1.2;
  /// Fixed per-query overhead (candidate-set setup for NRA, k-way merge
  /// setup for SMJ) that steers short-list queries toward SMJ, matching
  /// the paper's guidance (SMJ for short lists, NRA for long ones).
  double nra_fixed_cost = 500.0;
  double smj_fixed_cost = 50.0;
  /// OR queries expand candidate bookkeeping in the list-based methods.
  double or_overhead = 1.3;
  /// Fraction of a missing word list's build cost charged to the triggering
  /// query; the rest is treated as amortized over future queries that the
  /// cache will serve.
  double build_amortization = 0.25;
  /// Disk-tier charges (disk-backed engines only), in the same abstract
  /// entry units as the costs above, per device block. Sequential models
  /// a streamed list (SMJ's k-way merge reads each spilled list front to
  /// back; the device lookahead keeps the interleave cheap); random
  /// models NRA's round-robin head, which jumps between on-device list
  /// files every read once more than one list is spilled. Defaults keep
  /// the 10:1 seek:transfer ratio of the Section 5.5 device (1 ms vs
  /// 10 ms) and make one block roughly as expensive as merging a few
  /// hundred in-memory entries.
  double disk_sequential_block_cost = 200.0;
  double disk_random_block_cost = 2000.0;
};

/// Inputs of the pure cost model; CostPlanner::GatherInputs reads them
/// from a MiningEngine, tests can synthesize them directly.
struct PlannerInputs {
  std::size_t num_docs = 0;
  /// Average number of distinct phrases per document (forward-list length).
  double avg_doc_phrases = 0.0;
  QueryOperator op = QueryOperator::kAnd;
  std::size_t k = 0;
  /// True when the engine carries an unrebuilt update overlay. The
  /// count-based methods (Exact/GM/Simitsis) mine the base corpus and
  /// would serve stale answers, so the planner then restricts its choice
  /// to the delta-correctable list methods (NRA/SMJ) -- unless
  /// allow_approximate is off, which is an explicit operator promise of
  /// base-corpus exactness.
  bool updates_pending = false;
  /// True when the engine's word lists live on a simulated disk tier
  /// (MiningEngineOptions::disk_backed): in-memory NRA is not available,
  /// so the NRA candidate is costed and emitted as Algorithm::kNraDisk
  /// with per-block I/O terms for every spilled list, and SMJ is charged
  /// a sequential stream-in for its spilled inputs.
  bool disk_backed = false;
  std::vector<TermPlanStats> terms;
};

/// Selects the mining algorithm per query from per-term index statistics,
/// so callers of PhraseService never have to know the paper's
/// NRA-vs-SMJ-vs-forward-scan trade-offs. Decision procedure:
///   1. An AND query with a zero-df term has an empty sub-collection:
///      GM terminates immediately, pick it (SMJ when updates are pending,
///      so the emptiness reflects the *live* corpus).
///   2. allow_approximate == false: Exact for tiny sub-collections, GM
///      otherwise (both are exact methods; an explicit base-corpus
///      promise, even while updates are pending).
///   3. Sub-collection estimate <= exact_subcollection_threshold and no
///      updates pending: Exact.
///   4. Otherwise: argmin of the modeled cost over {GM, NRA, SMJ}; with
///      updates pending GM is excluded (it would mine the base corpus).
///
/// Disk routing rule: on a disk-backed engine (PlannerInputs::disk_backed,
/// set from MiningEngineOptions::disk_backed) the word lists live on the
/// simulated disk tier, so the in-memory kNra candidate is replaced by
/// kNraDisk -- the honest plan charges the spilled lists' block I/O --
/// and the argmin runs over {GM, NRA-disk, SMJ}. NRA-disk pays
/// traversal-scaled block reads at the random rate when more than one
/// list is spilled (its round-robin head seeks between on-device list
/// files; with a single spilled file the reads stream sequentially);
/// SMJ pays a full sequential stream-in of every spilled list (its
/// id-ordered inputs
/// are rebuilt in RAM in this reproduction, so the charge is model-only
/// and documented in docs/disk_tier.md). Resident (pinned) lists charge
/// nothing, which is how the spill policy's placement steers the
/// decision. kSimitsis is still never chosen -- it exists for the
/// paper's comparison studies and must be forced explicitly.
///
/// Under live updates the per-term and corpus document frequencies are
/// corrected by the engine's delta overlay before costing, so plans do not
/// degrade as the overlay grows between rebuilds (the overlay cannot shift
/// list lengths, which only change at a rebuild).
///
/// Every entry point is static. GatherInputs reads engine statistics under
/// the engine's shared structure lock (so a concurrent rebuild cannot swap
/// indexes mid-read); all of them are safe from any number of threads
/// concurrently. A service plans through ShardedEngine (one GatherInputs
/// per shard) and PlanAcrossShards; a single engine plans with
/// PlanFromInputs(GatherInputs(...)).
class CostPlanner {
 public:
  /// The gathering primitive: reads `engine`'s cost-model inputs for one
  /// query (per-term delta-corrected dfs, the engine's own built-list
  /// lengths, corpus scalars) under its shared structure lock against the
  /// caller's snapshot, without deciding anything. ShardedEngine collects
  /// one of these per shard (under its fleet lock) and feeds them to
  /// PlanAcrossShards.
  static PlannerInputs GatherInputs(const MiningEngine& engine,
                                    const Query& query,
                                    const MineOptions& options,
                                    const EpochDelta& snap);

  /// The pure cost model over one engine's inputs (decision-table tests
  /// synthesize them).
  static PlanDecision PlanFromInputs(const PlannerInputs& inputs,
                                     const PlannerOptions& options);

  /// Plans one query across a shard fleet: the decision-procedure
  /// short-circuits (empty query, zero global df under AND, approximation
  /// disallowed, tiny sub-collection) run on the *aggregated* inputs --
  /// per-term dfs and doc counts summed over the disjoint partition --
  /// while the cost of each candidate algorithm is the *maximum* of its
  /// per-shard costs: shards mine in parallel, so the modeled latency of
  /// a scatter is its slowest shard (makespan), not the sum. A single
  /// shard plans exactly like PlanFromInputs of its inputs (no aggregation,
  /// no "sharded(1)" prefix), so a one-engine service keeps its plans.
  static PlanDecision PlanAcrossShards(std::span<const PlannerInputs> shards,
                                       const PlannerOptions& options);
};

}  // namespace phrasemine

#endif  // PHRASEMINE_SERVICE_PLANNER_H_
