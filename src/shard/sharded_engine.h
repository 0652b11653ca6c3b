#ifndef PHRASEMINE_SHARD_SHARDED_ENGINE_H_
#define PHRASEMINE_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/miner.h"
#include "core/query.h"
#include "phrase/phrase_dictionary.h"
#include "service/planner.h"
#include "service/thread_pool.h"
#include "text/corpus.h"

namespace phrasemine {

/// Sizing and policy knobs for ShardedEngine.
struct ShardedEngineOptions {
  /// Number of corpus partitions (clamped to at least 1). Each shard is a
  /// full single-shard MiningEngine over its slice of the documents.
  std::size_t num_shards = 4;
  /// Per-shard engine knobs. The extractor settings define the *global*
  /// phrase set: it is extracted once over the whole corpus (exactly what
  /// a monolithic engine would extract) and installed into every shard as
  /// a fixed phrase set with per-shard document frequencies -- see
  /// MiningEngineOptions::fixed_phrase_set. PhraseIds are therefore
  /// global: identical across shards and identical to a monolithic
  /// engine built from the same corpus and options.
  MiningEngineOptions engine;
  /// Scatter fan-out of the approximate (top-k') paths (GM, Simitsis,
  /// NRA, NRA-disk): each shard mines merge_headroom * k + merge_slack
  /// candidates before the gather refines exact global supports for the
  /// union. Exact and SMJ use exhaustive support scatter and ignore this.
  std::size_t merge_headroom = 4;
  std::size_t merge_slack = 16;
  /// Worker threads mining shards in parallel; 0 means num_shards.
  std::size_t mine_threads = 0;
  /// Declares every shard's word lists disk-backed: each shard engine
  /// gets its OWN SimulatedDisk (engine.disk device model), so kNraDisk
  /// scatters run on genuinely parallel, independently-throttled devices
  /// -- the merged disk_ms is the slowest device's charge (makespan),
  /// not one serialized simulator's sum -- and CostPlanner routes the
  /// NRA candidate through the disk path (see the planner's routing
  /// rule). Merged with engine.disk_backed at Build (set on either
  /// surface wins) and written back to both.
  bool disk_backed = false;
  /// Per-shard resident-memory budget of the disk tier, in bytes of
  /// packed list entries (kListEntryBytes each, like
  /// engine.disk_resident_budget): each shard's spill policy pins its
  /// own hottest lists (by its local term dfs) up to this budget and
  /// spills the cold tail to its device (see
  /// DiskResidentLists::ResidentSet). 0 keeps every list on disk, the
  /// paper's Section 5.5 protocol. Placement moves only modeled cost:
  /// ranked output is bitwise identical across budgets. Merged with
  /// engine.disk_resident_budget at Build (a nonzero value on either
  /// surface wins, fleet-level first) and written back to both.
  uint64_t disk_budget_per_shard = 0;
  /// When non-empty, the fleet persists itself as a family of index files
  /// under this path prefix: one "<prefix>.shardK.pmidx" engine file per
  /// shard plus a "<prefix>.fleet.pmidx" manifest recording the global
  /// phrase set and the global->shard document mapping. Build persists the
  /// family automatically and per-shard rebuilds re-persist their file;
  /// LoadFromFiles reopens the whole fleet from the mapped files. Any
  /// persist_path set on the embedded `engine` options is cleared at Build
  /// -- per-shard paths always derive from this prefix, so N shards can
  /// never race on one file (a fleet built with a monolith's engine
  /// options inherits that field, which addresses a single file).
  std::string persist_path;
  /// Test seam: maps a global document id to its owning shard (second
  /// argument is num_shards). Defaults to a SplitMix64 hash of the id.
  std::function<std::size_t(DocId, std::size_t)> partitioner;
};

/// Delta-corrected document frequency of a phrase on one shard: the
/// shard's base df plus the overlay's df delta, floored at zero. Shared
/// by the scatter-gather fill rounds and the subscription layer's
/// sharded rescorer so the exactness-critical integer arithmetic has
/// exactly one implementation.
uint32_t AdjustedShardDf(uint32_t base_df, PhraseId p,
                         const DeltaIndex* delta);

/// Recovers the integer co-occurrence count behind a stored list
/// probability (prob = count / base_df, so the product rounds back
/// exactly -- the same recovery DeltaIndex::AdjustedProb uses), applies
/// the shard overlay's co-occurrence delta and clamps to [0, df_adj].
uint32_t AdjustedShardCodf(double base_prob, uint32_t base_df, TermId term,
                           PhraseId p, const DeltaIndex* delta,
                           uint32_t df_adj);

/// One shard's contribution to a ShardedUpdateEvent: the shard's epoch,
/// structure identifiers and overlay snapshot as of the batch.
struct ShardUpdateEvent {
  uint64_t epoch = 0;
  uint64_t generation = 0;
  uint64_t structure_version = 0;
  /// The shard's overlay at that epoch (null right after its rebuild).
  std::shared_ptr<const DeltaIndex> delta;
};

/// Post-batch notification mirrored from MiningEngine::UpdateEvent for a
/// fleet: per-shard snapshots plus the batch's touched phrases merged
/// under the global PhraseId space (identical across shards by
/// construction). Delivered under the fleet's update mutex, in composite
/// epoch order, exactly once per ApplyUpdate / rebuild tier. Listeners
/// must be cheap and must not call back into the engine.
struct ShardedUpdateEvent {
  /// Composite epoch (sum of shard epochs) after the batch.
  uint64_t epoch = 0;
  /// One entry per shard, in shard order -- including shards this batch
  /// never routed a document to (their snapshot is simply unchanged).
  std::vector<ShardUpdateEvent> shards;
  /// Union of the batch's touched global PhraseIds, sorted/deduplicated.
  std::vector<PhraseId> touched;
  /// True for RebuildShard/Rebuild/RefreshDictionary completion events:
  /// structures (and, on a refresh, PhraseIds) were replaced, so
  /// consumers must drop derived state and re-mine.
  bool rebuilt = false;
};

/// Callback type for ShardedUpdateEvent delivery; see SetUpdateListener.
using ShardedUpdateListener = std::function<void(const ShardedUpdateEvent&)>;

/// Aggregate of one ShardedEngine::ApplyUpdate call: the summed
/// UpdateStats plus the per-shard epoch vector and per-shard rebuild
/// recommendations (so callers can rebuild only the shards that crossed
/// their threshold -- the point of the shrunken rebuild blast radius).
struct ShardedUpdateStats {
  /// Summed accounting; `epoch` is the composite sum of shard epochs and
  /// `rebuild_recommended` is true when any shard recommends one.
  UpdateStats total;
  std::vector<uint64_t> epochs;
  /// One flag per shard, latched from that shard's last ApplyUpdate.
  std::vector<uint8_t> rebuild_recommended;
};

/// What ShardedEngine::Mine hands back: the merged MineResult (with the
/// composite epoch vector filled) plus the ranked phrases' texts.
/// result.phrases[i].phrase is the *global* PhraseId -- every shard
/// shares one phrase set, so ids are portable and equal to the ids a
/// monolithic engine built from the same corpus would assign. An adopted
/// fleet (ShardedEngine::Adopt) returns its engine's own MineResult
/// unchanged, with the one-entry epoch vector filled and `texts` empty:
/// resolve its ids through PhraseText.
struct ShardedMineResult {
  MineResult result;
  /// Built fleets: the ranked phrases' texts, aligned with
  /// result.phrases. Empty on an adopted fleet.
  std::vector<std::string> texts;
  /// Size of the merged candidate union before the top-k cut.
  std::size_t candidates = 0;
  /// Support lookups the top-k' fill round performed: one per (shard,
  /// union candidate) pair. Always 0 on the exhaustive merges (Exact,
  /// SMJ), which have no fill round.
  std::size_t fill_slots = 0;
  /// True when the merge was support-exhaustive (Exact, SMJ): the ranked
  /// output provably equals the monolithic engine's, tie order included
  /// (both sides break equal scores by smaller PhraseId). False on the
  /// bounded top-k' paths.
  bool exact_merge = false;
  /// Largest k'-th local score across shards on the top-k' paths: no
  /// phrase outside the candidate union ranked above this in any shard.
  /// See the class comment for the (approximate) bound this supports.
  double candidate_floor = 0.0;
  /// Per-shard simulated-disk I/O in shard order (kNraDisk scatters
  /// only; all zeros otherwise). Every shard charges its OWN device, so
  /// entries are independent: result.disk_io sums them (aggregate device
  /// work) while result.disk_ms keeps the slowest device's charge (the
  /// parallel makespan).
  std::vector<DiskIoStats> shard_disk_io;
};

/// Hash-partitioned corpus mining: N single-shard MiningEngines sharing
/// one global phrase dictionary (per-shard document frequencies), mined
/// in parallel on a bounded ThreadPool and merged by a scatter-gather
/// that recomputes *global* interestingness from summed per-shard
/// supports, joined by global PhraseId.
///
/// Identity across shards: the vocabulary is copied into every shard
/// (and kept in sync by broadcasting ingested terms through
/// MiningEngine::InternTerms), so TermIds and parsed Query objects are
/// portable; the phrase set is extracted once over the full corpus, so
/// PhraseIds are portable too, and both match a monolithic engine built
/// from the same corpus and options.
///
/// Fleet-wide df table: a phrase's document frequency -- the denominator
/// of Eq. 1 and of every stored list probability -- depends on the phrase
/// alone, never on the query. The fleet keeps one immutable table of
/// sum_s df_s(p) over the global phrase set, tagged with every shard's
/// structure_version(); a mine whose snapshots carry other versions (a
/// rebuild, a reload, a dictionary refresh) recomputes and republishes
/// it before scattering. The gather reads every candidate's df from it,
/// so no round ever ships a df.
///
/// Exactness per algorithm (see docs/exactness.md for the derivation):
///  * kExact: exact, one round. The scatter mirrors ExactMiner per shard
///    (a full forward scan of the shard's sub-collection), the gather sums
///    freq(p, D'_s), |D'_s| and |D_s| -- all plain sums over the disjoint
///    partition -- takes the base df from the table and re-evaluates
///    Eq. 1/PMI from the totals, which is bitwise the monolithic
///    computation, tie order included.
///  * kSmj: exact over full lists, one round. The scatter unions every
///    per-term (phrase, prob) entry of the shard's word lists
///    (delta-overlaid under pending updates), the gather recovers integer
///    co-occurrence counts, sums them, and recomputes P(q|p) = sum codf /
///    df, where df is the table's base df plus every pending overlay's
///    DfDelta -- bitwise the probability a monolithic list would store.
///    Sharded SMJ always merges full lists (a truncation fraction < 1 is a
///    construction-time decision this path does not offer).
///  * kGm, kSimitsis, kNra, kNraDisk: approximate with a documented
///    bound. Each shard mines top-k' = merge_headroom * k + merge_slack
///    locally; the gather refines *exact* global supports for the
///    candidate union, so every reported score is exact -- only candidate
///    recall is bounded. A phrase missed by every shard scored below that
///    shard's k'-th local score; because a summed-support ratio is a
///    mediant of the per-shard ratios, a single-term query's missed
///    phrases are provably below max_s(floor_s) (ShardedMineResult::
///    candidate_floor), while multi-term aggregation makes the bound
///    heuristic (a phrase mediocre everywhere can sum above it).
///
/// Updates: ApplyUpdate routes inserts to their owning shard (documents
/// are numbered globally: build-time ids first, ingested ids after) and
/// translates deletes to shard-local ids; only the owning shard's epoch
/// advances. Results carry the per-shard epoch vector, and Rebuild runs
/// shard-by-shard -- ingest interleaves between shards and queries never
/// lose more than one shard's freshness at a time. A shard rebuild keeps
/// the frozen global phrase set (absorbing the shard's delta into its
/// base structures); phrases that only became frequent through updates
/// enter via RefreshDictionary, the heavyweight tier that re-extracts
/// the global set over all live documents and swaps every shard at once.
///
/// Adopted fleets: ShardedEngine::Adopt wraps a caller-owned
/// MiningEngine as a one-shard fleet without copying its corpus or
/// building a second index. Mine, ApplyUpdate, Rebuild/RebuildShard,
/// epochs, update_stats, SetTermPopularity, ParseQuery and PhraseText
/// pass straight through to that engine, so every result is bitwise the
/// engine's own on all six algorithms (top-k' paths included) and delete
/// ids keep the engine's live numbering. The passthrough is keyed on
/// adoption, not on the shard count: a Build-made one-shard fleet still
/// runs the full scatter-gather (benchmarks use it as the merge-overhead
/// baseline). This is how PhraseService and SubscriptionManager serve a
/// single engine through the one fleet interface.
///
/// Thread-safety: Mine/ParseQuery/PhraseText/epochs/epoch/update_stats
/// may run concurrently from any threads; ApplyUpdate, Rebuild,
/// RebuildShard and RefreshDictionary serialize on an internal update
/// mutex and are safe against concurrent mines. shard() references are
/// stable except across RefreshDictionary, which swaps the fleet under
/// an exclusive lock the readers above take shared. Structural mutation
/// (move) requires external exclusive access.
class ShardedEngine {
 public:
  using Options = ShardedEngineOptions;

  /// Extracts the global phrase set, partitions `corpus` and builds every
  /// shard (in parallel on the mining pool). Each shard corpus gets a
  /// full copy of the source vocabulary so term ids stay global.
  static ShardedEngine Build(Corpus corpus, Options options = {});

  /// A one-shard fleet over `engine`, which the caller keeps owning and
  /// which must outlive the fleet (see the class comment). The engine may
  /// still be used directly: its own ApplyUpdate/Rebuild calls reach the
  /// fleet's update listener too.
  static ShardedEngine Adopt(MiningEngine* engine);

  /// Reopens a fleet persisted under `prefix` (see Options::persist_path):
  /// the manifest restores the global phrase set and the global->shard
  /// document mapping, and every shard engine is reconstructed from its
  /// own mapped index file (in parallel on the mining pool). `options`
  /// supplies the runtime knobs (threads, merge headroom, disk tier...);
  /// num_shards and persist_path are overridden by the manifest/prefix and
  /// engine.fixed_phrase_set by the restored global set. Pending deltas
  /// were never part of the files: the reopened fleet serves the state as
  /// of the last build/rebuild/SaveToFiles.
  static Result<ShardedEngine> LoadFromFiles(const std::string& prefix,
                                             Options options = {});

  /// Writes the whole family under `prefix` now: every shard's engine file
  /// plus the fleet manifest. Serializes with updates and rebuilds. Base
  /// structures only -- per-shard pending deltas are not persisted (call
  /// Rebuild() first for a checkpoint that includes them). Refused on an
  /// adopted fleet (persist the engine itself: MiningEngine::SaveToFile).
  Status SaveToFiles(const std::string& prefix) const;

  /// Outcome of the last automatic persist (Build and the rebuild tiers
  /// re-persist when Options::persist_path is set); OK when persistence
  /// is off.
  const Status& persist_status() const { return persist_status_; }

  /// File names of a fleet persisted under `prefix`.
  static std::string ShardFilePath(const std::string& prefix,
                                   std::size_t shard);
  static std::string FleetManifestPath(const std::string& prefix);

  ShardedEngine(ShardedEngine&&) = default;
  ShardedEngine& operator=(ShardedEngine&&) = default;

  // --- Querying -------------------------------------------------------------

  /// Parses against the shared vocabulary (shard 0's copy; all identical).
  Result<Query> ParseQuery(std::string_view text, QueryOperator op) const;

  /// Scatter-gathers one query across all shards. `options.delta` must be
  /// null: per-shard overlays are applied internally. See the class
  /// comment for the per-algorithm exactness contract.
  ShardedMineResult Mine(const Query& query, Algorithm algorithm,
                         const MineOptions& options = {});

  /// Lexical form of a global phrase id (shard 0's fixed-slot file; all
  /// shards share the phrase set, so any would do).
  std::string PhraseText(PhraseId id) const;

  /// Construction fraction of the id-ordered lists kSmj mines run on:
  /// 1.0 on a built fleet (sharded SMJ always merges full lists), the
  /// engine's own smj_fraction() on an adopted one.
  double smj_fraction() const;

  /// Per-shard cost-model inputs for one query, gathered under the fleet
  /// lock so a dictionary refresh cannot swap the engines away mid-read
  /// (callers must never cache per-shard planners across a refresh).
  /// Feed the result to CostPlanner::PlanAcrossShards.
  std::vector<PlannerInputs> GatherPlannerInputs(
      const Query& query, const MineOptions& options) const;

  // --- Live updates ---------------------------------------------------------

  /// Routes one batch to the owning shards. Delete ids address the global
  /// live numbering (build-time ids below the original corpus size,
  /// ingested ids after, in ingest order); unknown or already-deleted ids
  /// are ignored. Serializes with the rebuild entry points.
  ShardedUpdateStats ApplyUpdate(const UpdateBatch& batch);

  /// Installs (or, with null, clears) the fleet-level post-batch update
  /// listener; see ShardedUpdateEvent for the delivery contract.
  /// Serializes against in-flight ApplyUpdate and the rebuild tiers: once
  /// SetUpdateListener(nullptr) returns, no further callback will run. On
  /// an adopted fleet the listener is installed on the engine, wrapping
  /// each UpdateEvent as a one-entry ShardedUpdateEvent, so direct
  /// engine.ApplyUpdate/engine.Rebuild calls fire it too.
  void SetUpdateListener(ShardedUpdateListener listener);

  /// Rebuilds every shard, one at a time; ingest may interleave between
  /// shards and queries keep running throughout. The global phrase set
  /// stays frozen (see RefreshDictionary).
  void Rebuild();

  /// Rebuilds a single shard (the shrunken blast radius of the sharded
  /// design) and compacts the global->local document mapping for it.
  void RebuildShard(std::size_t shard);

  /// The heavyweight rebuild tier: absorbs every shard's pending updates,
  /// re-extracts the global phrase set over all live documents, rebuilds
  /// every shard against it offline and swaps the fleet in atomically.
  /// This is where phrases that entered the corpus through updates join
  /// the dictionary (the paper's "new phrases enter P at the next offline
  /// rebuild", fleet-wide). Ingest stalls for the duration; queries keep
  /// being served from the old fleet until the swap. Global PhraseIds are
  /// reassigned; per-shard epochs continue monotonically so epoch-keyed
  /// caches can never resurrect a pre-refresh result. FailedPrecondition
  /// on an adopted fleet: the swap would destroy the borrowed engine.
  Status RefreshDictionary();

  /// Per-shard epoch vector, in shard order.
  std::vector<uint64_t> epochs() const;

  /// Composite epoch: the sum of shard epochs (monotone under updates).
  uint64_t epoch() const;

  /// Summed per-shard accounting as of the last update.
  UpdateStats update_stats() const;

  /// Summed per-shard word-list accounting (MiningEngine::word_list_stats).
  WordListStats word_list_stats() const;

  // --- Component access (planner, benchmarks, tests) ------------------------

  std::size_t num_shards() const { return shards_.size(); }
  /// Raw shard access for tests/benchmarks. NOT guarded against
  /// RefreshDictionary (which destroys and replaces every engine): do
  /// not call concurrently with one or hold the reference across one --
  /// the synchronized entry points (Mine, ParseQuery, PhraseText,
  /// GatherPlannerInputs, epochs) are the refresh-safe surface.
  const MiningEngine& shard(std::size_t i) const { return *shards_[i]; }
  MiningEngine& shard(std::size_t i) { return *shards_[i]; }

  /// Runs fn(shard engine) under the shared fleet lock, so a concurrent
  /// RefreshDictionary cannot swap the engines away mid-read -- the
  /// refresh-safe alternative to shard() for concurrent readers (the
  /// subscription rescorer reads per-shard base lists through this).
  template <typename Fn>
  auto WithShard(std::size_t i, Fn&& fn) const {
    std::shared_lock fleet_lock(*shards_mu_);
    return fn(*shards_[i]);
  }

  /// The frozen global phrase set shared by all shards (per-shard df
  /// lives in each shard's own dictionary clone). Built fleets only: an
  /// adopted fleet's phrase set is its engine's dict().
  const PhraseDictionary& phrase_set() const { return *global_set_; }

  /// The fleet-wide base df table a mine would read now, indexed by
  /// global PhraseId: sum over shards of shard(s).dict().df(p),
  /// recomputed first if any shard's structure moved since it was
  /// published (see the class comment). Null on an adopted fleet.
  std::shared_ptr<const std::vector<uint32_t>> base_df_table() const;

  /// Documents across all shards at build time plus ingested ones (dead
  /// ids included; global numbering never compacts). 0 on an adopted
  /// fleet, whose engine keeps its own numbering.
  std::size_t num_docs() const;

  const Options& options() const { return options_; }

  /// Re-budgets every shard's disk tier at runtime (benchmarks sweep
  /// resident fractions on one built fleet; results are identical at
  /// every budget -- placement moves modeled cost, never contents).
  /// Requires external exclusive access: no concurrent Mine, update or
  /// rebuild calls in flight.
  void SetDiskBudgetPerShard(uint64_t budget_bytes);

  /// Broadcasts observed per-term query counts to every shard's disk
  /// tier (MiningEngine::SetTermPopularity): each shard re-derives its
  /// hotness order from the shared snapshot and lazily re-places its own
  /// resident set on the next kNraDisk mine. TermIds are global across
  /// the fleet, so one service-level count map serves all shards. Safe
  /// against concurrent mines (the per-shard install takes each shard's
  /// exclusive structure lock).
  void SetTermPopularity(std::shared_ptr<const TermPopularity> observed);

 private:
  ShardedEngine() = default;

  /// Where a global document id lives.
  struct DocLocation {
    uint32_t shard = 0;
    DocId local = 0;
  };

  std::size_t ShardOf(DocId global) const;

  /// One published fleet-wide df table and the shard structures it sums.
  struct DfTable {
    std::vector<uint64_t> versions;  // shard structure_version()s, in order
    std::vector<uint32_t> df;        // indexed by global PhraseId
  };

  /// The table matching `snaps` (one snapshot per shard): the published
  /// one when its versions equal the snapshots', else a fresh sum read
  /// under each shard's shared structure lock, then published. Null when
  /// a shard's structure already moved past its snapshot; the caller
  /// retries with fresh snapshots. Caller holds the fleet lock shared.
  std::shared_ptr<const DfTable> DfTableFor(
      std::span<const EpochDelta> snaps) const;

  /// Runs fn(shard_index) for every shard on the pool, inline when the
  /// pool is saturated or shut down, and waits for all of them.
  void ParallelOverShards(const std::function<void(std::size_t)>& fn);

  /// RebuildShard body; caller holds update_mu_.
  void RebuildShardLocked(std::size_t shard);

  /// Fires a rebuilt-flagged ShardedUpdateEvent with the fleet's current
  /// per-shard snapshots; caller holds update_mu_.
  void NotifyRebuiltLocked();

  /// Writes the fleet manifest file (global dictionary + document
  /// mapping); caller holds update_mu_ or has exclusive access.
  Status SaveManifestLocked(const std::string& prefix) const;

  Options options_;
  Status persist_status_;
  std::shared_ptr<const PhraseDictionary> global_set_;
  /// Shard engines; an adopted fleet's single entry borrows the caller's
  /// engine (no-op deleter).
  std::vector<std::shared_ptr<MiningEngine>> shards_;
  /// The caller-owned engine every call passes through to (Adopt only).
  MiningEngine* adopted_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  /// Fleet lock: shared by everything that dereferences shards_,
  /// exclusive only for RefreshDictionary's swap.
  std::unique_ptr<std::shared_mutex> shards_mu_ =
      std::make_unique<std::shared_mutex>();

  /// The published df table. Mines swap in a recomputed table under `mu`
  /// and read their own copy of the pointer, so a publish racing a mine
  /// never changes the table that mine divides by.
  struct DfTableSlot {
    std::mutex mu;
    std::shared_ptr<const DfTable> table;
  };
  std::unique_ptr<DfTableSlot> df_table_ = std::make_unique<DfTableSlot>();

  /// Guards the global document numbering; also serializes
  /// ApplyUpdate and the rebuild tiers against each other (per-shard
  /// engines handle their own mine/update synchronization).
  std::unique_ptr<std::mutex> update_mu_ = std::make_unique<std::mutex>();
  std::vector<DocLocation> locate_;            // indexed by global id
  std::vector<uint8_t> dead_;                  // indexed by global id
  std::size_t num_dead_ = 0;
  /// Global ids in shard-local order (dead ids kept until that shard's
  /// rebuild compacts the local numbering).
  std::vector<std::vector<DocId>> shard_globals_;
  /// Latched per-shard rebuild recommendations from the last ApplyUpdate.
  std::vector<uint8_t> rebuild_recommended_;
  /// Fleet-level update listener; written and fired under update_mu_.
  ShardedUpdateListener update_listener_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_SHARD_SHARDED_ENGINE_H_
