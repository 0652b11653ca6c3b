#ifndef PHRASEMINE_CORE_ENGINE_H_
#define PHRASEMINE_CORE_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/delta_index.h"
#include "core/disk_lists.h"
#include "core/exact_miner.h"
#include "core/gm_miner.h"
#include "core/miner.h"
#include "core/nra_miner.h"
#include "core/query.h"
#include "core/simitsis_miner.h"
#include "core/smj_miner.h"
#include "index/forward_index.h"
#include "index/inverted_index.h"
#include "index/phrase_list_file.h"
#include "index/phrase_posting_index.h"
#include "index/word_lists.h"
#include "phrase/phrase_dictionary.h"
#include "phrase/phrase_extractor.h"
#include "storage/index_file.h"
#include "storage/simulated_disk.h"
#include "text/corpus.h"

namespace phrasemine {

/// Algorithm selector for MiningEngine::Mine.
enum class Algorithm {
  kExact,     ///< Ground-truth Eq. 1 scoring over full forward lists.
  kGm,        ///< Exact forward-index baseline (Gao & Michel style).
  kSimitsis,  ///< Two-phase phrase-dictionary baseline (approximate).
  kNra,       ///< Paper's NRA over score-ordered word lists (approximate).
  kNraDisk,   ///< NRA with simulated disk-resident lists (Section 5.5).
  kSmj,       ///< Paper's SMJ over id-ordered word lists (approximate).
};

/// Renders "Exact"/"GM"/... for reports.
const char* AlgorithmName(Algorithm algorithm);

/// The guarantee a result mined by `algorithm` carries when a delta overlay
/// was (`delta_applied`) or was not in effect; see UpdateGuarantee. SMJ's
/// exactness under a delta holds only over full lists -- with truncated
/// id-ordered lists (`smj_full_lists` false) base-positive pairs beyond
/// the prefix are invisible to the overlay and the result is approximate.
UpdateGuarantee GuaranteeFor(Algorithm algorithm, bool delta_applied,
                             bool smj_full_lists = true);

/// One document of a live-update batch, in raw string form. Tokens unseen
/// by the engine's vocabulary are interned on ingest so a later Rebuild()
/// picks them up; until then they cannot contribute to any base-dictionary
/// phrase (the paper's "new phrases enter P at the next offline rebuild").
struct UpdateDoc {
  std::vector<std::string> tokens;
  std::vector<std::string> facets;
};

/// One live-update batch: documents to insert plus DocIds to delete.
/// Delete ids address the engine's current live numbering: ids below
/// corpus().size() are build-time documents, ids at or above it address
/// documents inserted since the last rebuild, in ingest order. Unknown or
/// already-deleted ids are ignored. A rebuild compacts the numbering.
struct UpdateBatch {
  std::vector<UpdateDoc> inserts;
  std::vector<DocId> deletes;
};

/// Per-epoch accounting returned by ApplyUpdate (and readable at any time
/// via MiningEngine::update_stats).
struct UpdateStats {
  /// Epoch after the batch was absorbed. The epoch advances by one per
  /// ApplyUpdate call and per completed Rebuild.
  uint64_t epoch = 0;
  /// Documents inserted/deleted by this batch (deletes that addressed
  /// unknown or already-deleted ids are not counted).
  std::size_t batch_inserts = 0;
  std::size_t batch_deletes = 0;
  /// Updates absorbed into the overlay since the last rebuild.
  std::size_t pending_updates = 0;
  /// Documents currently alive (base - deleted + inserted).
  std::size_t live_docs = 0;
  /// pending_updates / live_docs: the overlay's relative size, compared
  /// against MiningEngineOptions::rebuild_threshold.
  double delta_fraction = 0.0;
  /// True when delta_fraction crossed the rebuild threshold; the engine
  /// never rebuilds on its own -- callers (PhraseService does this on its
  /// thread pool) schedule Rebuild().
  bool rebuild_recommended = false;
};

/// An immutable view of the engine's update state: the epoch, the structure
/// generation (bumped only by Rebuild), and the delta overlay accumulated
/// since the last rebuild (null when no update was ever applied or right
/// after a rebuild). The shared_ptr keeps the overlay alive and readable
/// without locks even if further updates or a rebuild land concurrently.
struct EpochDelta {
  uint64_t epoch = 0;
  uint64_t generation = 0;
  std::shared_ptr<const DeltaIndex> delta;
  /// Process-unique structure id at `epoch`; see
  /// MiningEngine::structure_version().
  uint64_t structure_version = 0;
};

/// Post-batch notification for standing-query consumers: everything the
/// subscription layer needs to rescore incrementally without re-reading
/// engine state (which could already have moved on). Delivered to the
/// installed update listener inside ApplyUpdate/Rebuild, after the new
/// epoch is published and still under the update mutex -- events arrive
/// in epoch order, exactly once. Listeners must be cheap and must not
/// call back into the engine (they run on the ingest thread; enqueue and
/// return).
struct UpdateEvent {
  /// Epoch after the batch (or rebuild) was absorbed.
  uint64_t epoch = 0;
  /// Structure generation at that epoch (bumped only by Rebuild).
  uint64_t generation = 0;
  /// Process-unique structure id; see MiningEngine::structure_version().
  uint64_t structure_version = 0;
  /// Overlay snapshot as of `epoch` (null right after a rebuild).
  std::shared_ptr<const DeltaIndex> delta;
  /// Phrase ids whose df or co-occurrence deltas this batch moved, sorted
  /// and deduplicated -- the complete "what can have changed" set for
  /// incremental top-k maintenance. Empty when `rebuilt` (PhraseIds were
  /// reassigned; nothing incremental survives).
  std::vector<PhraseId> touched;
  /// True when this event reports a completed Rebuild rather than an
  /// absorbed batch: every index was rebuilt and PhraseIds reassigned, so
  /// consumers must drop all derived state and start from a fresh mine.
  bool rebuilt = false;
};

/// Callback type for UpdateEvent delivery; see SetUpdateListener.
using UpdateListener = std::function<void(const UpdateEvent&)>;

/// Accounting of the engine's lazily built word lists (see
/// MiningEngine::word_list_stats). Hits and misses are per-term lookups
/// in EnsureWordLists: a hit found the list built, a miss built it.
struct WordListStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Terms with a built score-ordered list.
  std::size_t entries = 0;
  /// Resident bytes of the score-ordered lists plus the id-ordered
  /// (SMJ) SoA lists built over them (WordIdOrderedLists::MemoryBytes).
  std::size_t bytes = 0;
};

/// Build-time knobs for MiningEngine.
struct MiningEngineOptions {
  /// Phrase-extraction knobs (n-gram cap and min document frequency).
  PhraseExtractorOptions extractor;
  /// When set, the engine does not extract its own phrase set: it clones
  /// this one (same PhraseIds, parents, token sequences) and recounts the
  /// document frequencies over its own corpus. Rebuild() keeps honoring
  /// it, so the phrase set stays frozen across rebuilds and new phrases
  /// enter only when the owner installs a fresh set. This is how
  /// ShardedEngine gives every shard one global dictionary with
  /// per-shard dfs -- the property that makes PhraseIds (and therefore
  /// the scatter-gather merge join) global. Phrases that never occur in
  /// this corpus simply keep df 0.
  std::shared_ptr<const PhraseDictionary> fixed_phrase_set;
  /// Disk-simulation device parameters (block size, LRU cache depth,
  /// seek/transfer cost model) used by Algorithm::kNraDisk.
  DiskOptions disk;
  /// Declares the word lists disk-backed: the score-ordered lists live
  /// on this engine's simulated disk tier (minus whatever the resident
  /// budget pins), so in-memory NRA is not honest -- CostPlanner then
  /// routes the NRA candidate through Algorithm::kNraDisk and charges
  /// per-block I/O for every spilled list. Off by default: the engine
  /// behaves exactly as before and kNraDisk stays an explicit request.
  bool disk_backed = false;
  /// Resident-memory budget of the disk tier, in bytes of packed list
  /// entries (kListEntryBytes each, WordScoreLists::ListBytes -- what a
  /// list costs in RAM and on the device alike): the spill policy pins the
  /// hottest lists by term df as a strict prefix of the hotness order
  /// and spills the cold tail (see DiskResidentLists::ResidentSet).
  /// 0 keeps every list on the device -- the paper's Section 5.5
  /// protocol and the pre-tier behavior of kNraDisk. Placement moves
  /// only cost, never results: ranked output is bitwise identical
  /// across budgets.
  uint64_t disk_resident_budget = 0;
  /// Construction fraction used when an SMJ mine is issued before
  /// SetSmjFraction was called.
  double default_smj_fraction = 1.0;
  /// When non-empty, Build() persists the engine to this index file
  /// (storage/index_file.h page format) right after construction, and
  /// Rebuild() re-persists after every swap, so a restart can
  /// LoadFromFile() instead of re-extracting. Persistence is best-effort
  /// from Build's perspective -- the engine is returned fully functional
  /// either way, with the write outcome in persist_status(). An engine
  /// loaded from a file keeps the file mmapped and backs its disk tier
  /// with the mapped bytes (measured I/O, see MappedDisk).
  std::string persist_path;
  /// When the delta overlay exceeds this fraction of the live corpus,
  /// ApplyUpdate flags rebuild_recommended. <= 0 disables the
  /// recommendation (updates then accumulate until a caller rebuilds
  /// explicitly).
  double rebuild_threshold = 0.25;
};

/// One-stop facade over the whole library: owns the corpus, builds the
/// phrase dictionary and every index, and routes Mine() calls to the five
/// algorithms. Word-specific lists are built lazily per query term (they
/// are the only index whose full materialization is quadratic-ish; see
/// WordScoreLists::Build), and id-ordered SMJ lists are cached per
/// construction fraction.
///
/// Typical use:
///   MiningEngine engine = MiningEngine::Build(std::move(corpus));
///   Query q = engine.ParseQuery("trade reserves", QueryOperator::kOr).value();
///   MineResult top = engine.Mine(q, Algorithm::kSmj, {.k = 5});
///   for (const MinedPhrase& p : top.phrases)
///     std::cout << engine.PhraseText(p.phrase) << "\n";
///
/// Live updates (Section 4.5.1): ApplyUpdate absorbs document churn into a
/// copy-on-write DeltaIndex overlay and bumps the epoch; Mine() then
/// delta-corrects NRA and SMJ scores automatically (SMJ stays exact, NRA
/// approximate -- MineResult::guarantee says which held). Rebuild()
/// re-extracts phrases and rebuilds every index over the live document
/// set, swaps the structures in under the engine's exclusive lock, resets
/// the overlay and bumps both the epoch and the structure generation.
/// Vocabulary term ids survive a rebuild (the vocabulary only grows), so
/// parsed queries stay valid; PhraseIds and DocIds are reassigned --
/// resolve result phrases via PhraseText promptly or pin the epoch.
///
/// Threading contract:
///   * Mine(), ParseQuery(), PhraseText() and the const component accessors
///     over eagerly built structures (corpus, dict, indexes, phrase file)
///     may be called concurrently from any number of threads. Mine() holds
///     a shared structure lock for its whole run, so a concurrent merge or
///     rebuild can never invalidate structures in use. External component
///     readers that must not race a rebuild swap should wrap their reads
///     in WithSharedStructures.
///   * ApplyUpdate serializes on an update mutex, publishes a fresh
///     immutable DeltaIndex snapshot, and never blocks readers beyond a
///     brief snapshot-pointer swap. Rebuild holds the update mutex for its
///     whole build (ingest stalls, mining does not) and takes the
///     exclusive structure lock only for the final swap.
///   * Exception: word_lists() hands out the lazily merged container
///     without synchronization. Only read it while no Mine(),
///     EnsureWordLists() or Rebuild() call can be in flight (tests,
///     benchmarks, single-threaded preprocessing), or under
///     WithSharedStructures.
///   * Algorithms whose miners keep per-call scratch (kExact, kGm,
///     kSimitsis) serialize per algorithm; kNraDisk serializes on the
///     shared SimulatedDisk. kNra and kSmj run fully in parallel once
///     their lists exist -- these are the paper's serving algorithms.
///   * Structural mutations -- SetSmjFraction, SaveToDirectory,
///     LoadFromDirectory, moves -- require external exclusive access: no
///     concurrent Mine(), ApplyUpdate() or Rebuild() calls may be in
///     flight. SaveToDirectory persists the base structures only; call
///     Rebuild() first if updates are pending.
class MiningEngine {
 public:
  using Options = MiningEngineOptions;

  /// Builds all eagerly-needed structures: dictionary, inverted index,
  /// full + prefix-compressed forward indexes, phrase list file. When
  /// options.persist_path is set, also writes the index file there (see
  /// persist_status() for the outcome).
  static MiningEngine Build(Corpus corpus, Options options = {});

  /// Persists the engine (corpus, dictionary, every index and the word
  /// lists built so far) as one page-based index file -- a versioned,
  /// checksummed superblock plus one typed section per structure
  /// (storage/index_file.h) -- so later sessions can skip the
  /// extraction/indexing cost. Call EnsureWordLists first if the word
  /// lists should ride along (they back the measured disk tier after a
  /// reload).
  Status SaveToFile(const std::string& path) const;

  /// Restores an engine persisted by SaveToFile: validates the file
  /// (magic, version, endianness, checksums -- malformed input fails with
  /// Corruption, never crashes), decodes every section, and keeps the
  /// file mmapped so the disk tier can serve measured reads from the
  /// mapped structure bytes (index_file(), MappedDisk).
  static Result<MiningEngine> LoadFromFile(const std::string& path,
                                           Options options = {});

  /// SaveToFile/LoadFromFile at the fixed name "engine.pmidx" inside an
  /// existing directory.
  Status SaveToDirectory(const std::string& dir) const;
  static Result<MiningEngine> LoadFromDirectory(const std::string& dir,
                                                Options options = {});

  /// Outcome of the last options-driven persist (Build / Rebuild with
  /// persist_path set); OK when no persist was requested.
  const Status& persist_status() const { return persist_status_; }

  /// The opened index file this engine was loaded from, or nullptr when
  /// it was built in memory. Its open_ms() is the measured cold-open
  /// cost (mapping + full checksum validation).
  const IndexFile* index_file() const { return index_file_.get(); }

  MiningEngine(MiningEngine&&) = default;
  MiningEngine& operator=(MiningEngine&&) = default;

  // --- Querying -------------------------------------------------------------

  /// Parses a whitespace-separated query against the corpus vocabulary.
  /// Safe to call concurrently with ApplyUpdate (which may intern new
  /// terms).
  Result<Query> ParseQuery(std::string_view text, QueryOperator op) const;

  /// Runs one of the algorithms. For kNra/kNraDisk/kSmj, the word lists of
  /// the query terms are built on first use (that cost is preprocessing,
  /// not query time, and is excluded from MineResult timings). When the
  /// engine carries a pending update overlay and the caller did not supply
  /// MineOptions::delta, the overlay is applied automatically; the result
  /// is stamped with the epoch and the guarantee that held.
  MineResult Mine(const Query& query, Algorithm algorithm,
                  const MineOptions& options = {});

  /// Lexical form of a phrase, served from the fixed-slot phrase list file
  /// under the shared structure lock (a concurrent rebuild swaps the file).
  std::string PhraseText(PhraseId id) const {
    std::shared_lock lock(sync_->lists_mu);
    return phrase_file_.Text(id);
  }

  // --- Live updates ----------------------------------------------------------

  /// Absorbs one batch of document inserts/deletes into the delta overlay
  /// and advances the epoch. Thread-safe against concurrent Mine() calls;
  /// concurrent ApplyUpdate/Rebuild calls serialize. On return the new
  /// epoch is visible to every subsequently started mine. When `event` is
  /// non-null it is filled with the batch's UpdateEvent (ShardedEngine
  /// collects per-shard events this way and merges them under the global
  /// PhraseId space instead of installing per-shard listeners).
  UpdateStats ApplyUpdate(const UpdateBatch& batch,
                          UpdateEvent* event = nullptr);

  /// Installs (or, with null, clears) the post-batch update listener; see
  /// UpdateEvent for the delivery contract. Serializes against in-flight
  /// ApplyUpdate/Rebuild calls: once SetUpdateListener(nullptr) returns,
  /// no further callback will run.
  void SetUpdateListener(UpdateListener listener);

  /// Raises the epoch to at least `min_epoch` without changing any state
  /// (no-op when already past it). ShardedEngine uses this after a
  /// dictionary refresh so the replacement engines' epochs continue
  /// monotonically from their predecessors' -- epoch-keyed caches must
  /// never see an epoch repeat with different contents.
  void AdvanceEpoch(uint64_t min_epoch);

  /// Deep copy of the base corpus (documents + vocabulary) under the
  /// structure and vocabulary locks, safe against concurrent rebuilds and
  /// ingest-time interning. Pending (un-rebuilt) inserts are not
  /// included; rebuild first if they matter.
  Corpus CloneBaseCorpus() const;

  /// Interns terms into the vocabulary without touching any document or
  /// index (idempotent; safe against concurrent ParseQuery/ApplyUpdate).
  /// ShardedEngine broadcasts every ingested document's terms through this
  /// before routing the document to its owning shard, which keeps all
  /// shard vocabularies identical -- identical intern order from identical
  /// starting vocabularies yields identical term ids -- so one parsed
  /// Query stays valid against every shard.
  void InternTerms(std::span<const std::string> terms);

  /// Full offline rebuild over the live document set: re-extracts phrases,
  /// rebuilds every index, re-materializes the word lists that were built
  /// before, swaps everything in, clears the overlay and advances the
  /// epoch and the structure generation. Blocks ingest (ApplyUpdate) for
  /// its duration; concurrent mines keep running against the old
  /// structures until the final swap.
  void Rebuild();

  /// Current epoch: 0 at build time, +1 per ApplyUpdate and per Rebuild.
  uint64_t epoch() const;

  /// Structure generation: bumped only by Rebuild. Cache layers keying
  /// derived structures (word lists) by generation invalidate exactly when
  /// the base indexes change.
  uint64_t list_generation() const;

  /// Process-unique id of the current structure set: assigned at
  /// construction (every Build/LoadFromFile) and reassigned by every
  /// Rebuild. Unlike list_generation() -- which restarts at 0 for every
  /// new engine instance -- this value never repeats within a process, so
  /// state that may outlive an engine replacement (the subscription
  /// layer's shadow top-k across a ShardedEngine dictionary refresh,
  /// which swaps in whole new shard engines) can key on it safely.
  uint64_t structure_version() const;

  /// Immutable snapshot of the update state for lock-free delta-corrected
  /// mining; see EpochDelta.
  EpochDelta delta_snapshot() const;

  /// Accounting as of the last ApplyUpdate/Rebuild.
  UpdateStats update_stats() const;

  /// Runs `fn` under the shared structure lock, so a concurrent Rebuild
  /// cannot swap the indexes mid-read. Component accessors used from
  /// concurrent contexts (the service planner and word-list builders)
  /// route through this.
  template <typename Fn>
  auto WithSharedStructures(Fn&& fn) const {
    std::shared_lock lock(sync_->lists_mu);
    return fn();
  }

  // --- Preprocessing control --------------------------------------------------

  /// Ensures word-specific score lists exist for these terms. Every term
  /// looked up counts as a hit (list already built) or a miss (built
  /// here) in word_list_stats().
  void EnsureWordLists(std::span<const TermId> terms);

  /// Built-list accounting: EnsureWordLists hits/misses since
  /// construction plus the entries and bytes of the lists built so far.
  WordListStats word_list_stats() const;

  /// Ensures lists exist for every term of every query (harness helper).
  void EnsureWordListsFor(std::span<const Query> queries);

  /// Ensures the id-ordered SMJ lists exist for these terms at the
  /// current construction fraction -- the same per-term SoA lists an SMJ
  /// mine builds on first use (only mined terms get one). ShardedEngine's
  /// list scatter/fill rounds and the subscription rescore call this so
  /// FullIdOrderedListLocked hands them the cached lists instead of
  /// re-sorting score-ordered ones per query.
  void EnsureIdOrderedLists(std::span<const TermId> terms);

  /// A term's full-fraction id-ordered SoA list, the one support-lookup
  /// input of the fleet's list legs and the subscription rescore: the
  /// cached list when the id-ordered lists are at fraction 1, otherwise
  /// one packed on the spot from the term's full score-ordered list.
  /// nullptr when the term has no score-ordered list. Caller must hold
  /// the shared structure lock (WithSharedStructures).
  SharedSoAList FullIdOrderedListLocked(TermId term) const;

  /// Rebuilds the SMJ id-ordered lists at this construction fraction
  /// (Section 4.4.1: a construction-time decision).
  void SetSmjFraction(double fraction);

  /// Re-budgets the disk tier at runtime: the next kNraDisk mine lazily
  /// rebuilds DiskResidentLists under the new resident budget (benches
  /// sweep resident fractions this way without rebuilding the engine).
  /// Requires external exclusive access like the other structural
  /// mutations: no concurrent Mine/ApplyUpdate/Rebuild in flight.
  void SetDiskResidentBudget(uint64_t budget_bytes);

  /// Installs observed per-term query counts as the disk tier's hotness
  /// signal: the next kNraDisk mine lazily re-places the resident set in
  /// observed-count order (df breaks ties; see
  /// DiskResidentLists::HotnessOrder), and ResidentSetLocked() predicts
  /// the same placement for the planner. Null restores the static df
  /// order. Unlike the other structural mutations this is safe against
  /// concurrent mines -- it takes the exclusive structure lock itself, so
  /// PhraseService can re-place on a cadence while queries are in flight.
  /// Re-placement moves cost, never results: ranked output is bitwise
  /// identical before and after (tested).
  void SetTermPopularity(std::shared_ptr<const TermPopularity> observed);

  /// The installed observed-count snapshot (null when placement is
  /// static). Takes the shared structure lock itself; from inside
  /// WithSharedStructures use TermPopularityLocked() instead.
  std::shared_ptr<const TermPopularity> term_popularity() const {
    std::shared_lock lock(sync_->lists_mu);
    return term_popularity_;
  }

  /// Lock-free variant for callers already under the shared structure
  /// lock (WithSharedStructures), e.g. the planner's input gathering.
  std::shared_ptr<const TermPopularity> TermPopularityLocked() const {
    return term_popularity_;
  }

  /// The spill policy's placement over the currently built word lists
  /// at the current resident budget -- exactly what the next kNraDisk
  /// mine will pin (DiskResidentLists::ResidentSet). Memoized: the
  /// O(T log T) policy recomputes only when the built-list set, the
  /// structure generation or the budget changed, so the planner can
  /// call this per query on the serving path. Caller must hold the
  /// shared structure lock (WithSharedStructures).
  std::shared_ptr<const std::unordered_set<TermId>> ResidentSetLocked() const;
  double smj_fraction() const {
    std::shared_lock lock(sync_->lists_mu);  // Rebuild() rewrites it
    return smj_fraction_;
  }

  // --- Component access (benchmarks, tests) ----------------------------------

  /// The build-time options (ShardedEngine::Adopt reports them as its
  /// fleet options; a fleet built over an engine's corpus can reuse them).
  const Options& options() const { return options_; }
  const Corpus& corpus() const { return corpus_; }
  const PhraseDictionary& dict() const { return dict_; }
  const InvertedIndex& inverted() const { return inverted_; }
  /// The kFull forward index: stored(d) is document d's whole phrase set.
  const ForwardIndex& forward() const { return forward_full_; }
  const ForwardIndex& forward_compressed() const { return forward_compressed_; }
  const PhraseListFile& phrase_file() const { return phrase_file_; }
  /// Average number of distinct phrases per document, sum_p df(p) / |D|
  /// over the base structures (the cost model's forward-list length);
  /// recomputed by every build and rebuild. Read under
  /// WithSharedStructures when a rebuild may run concurrently.
  double avg_doc_phrases() const { return avg_doc_phrases_; }
  /// Unsynchronized view of the lazily built word lists; see the class
  /// threading contract before reading this concurrently.
  const WordScoreLists& word_lists() const { return *word_lists_; }

  /// Phrase posting index, built lazily (only the Simitsis baseline uses
  /// it). Not rebuild-safe: the reference is invalidated by Rebuild().
  const PhrasePostingIndex& postings();

 private:
  /// Lock bundle kept behind a pointer so the engine stays movable.
  /// Acquisition order (never reversed): update_mu -> lists_mu ->
  /// {snapshot_mu, vocab_mu, postings_mu, disk_mu, per-miner mutexes}.
  struct Sync {
    /// Serializes ApplyUpdate and Rebuild against each other.
    std::mutex update_mu;
    /// Guards word_lists_, id_lists_, disk_lists_, smj_fraction_ and -- on
    /// a rebuild swap -- every base structure: shared for mining reads,
    /// exclusive for merges, fraction changes and rebuild swaps.
    std::shared_mutex lists_mu;
    /// Guards epoch_, generation_, delta_ and last_update_stats_.
    mutable std::mutex snapshot_mu;
    /// Guards the vocabulary: shared for ParseQuery lookups, exclusive for
    /// ingest-time interning of unseen terms.
    mutable std::shared_mutex vocab_mu;
    /// Guards lazy construction of postings_.
    std::mutex postings_mu;
    /// Serializes kNraDisk mines (the SimulatedDisk accumulates I/O).
    std::mutex disk_mu;
    /// Guards the memoized spill-policy placement (resident_memo_*).
    mutable std::mutex resident_mu;
    /// Per-miner locks for the scratch-carrying exact baselines.
    std::mutex exact_mu;
    std::mutex gm_mu;
    std::mutex simitsis_mu;
    /// EnsureWordLists lookups (word_list_stats); relaxed counters.
    std::atomic<uint64_t> list_hits{0};
    std::atomic<uint64_t> list_misses{0};
  };

  MiningEngine() = default;

  /// Hands out the next process-unique structure version (monotone
  /// counter starting at 1; 0 never occurs).
  static uint64_t NextStructureVersion();

  /// Invalidates structures derived from word_lists_ after it changes.
  /// Caller must hold lists_mu exclusively.
  void InvalidateDerivedLists();

  /// Lazily constructs the disk tier over the current word lists. When
  /// the engine was loaded from an index file the tier runs on a
  /// MappedDisk over the mapping (measured I/O); otherwise on the modeled
  /// SimulatedDisk. Caller must hold lists_mu (shared) and disk_mu.
  DiskResidentLists& EnsureDiskTierLocked();

  /// Lazy postings construction; caller must hold lists_mu (shared is
  /// enough -- postings_mu serializes the build itself).
  const PhrasePostingIndex& PostingsLocked();

  /// Live-document lookup for delete-by-id; caller must hold update_mu.
  /// Returns nullptr for out-of-range or already-deleted ids.
  const Document* LiveDoc(DocId id) const;

  Options options_;
  Corpus corpus_;
  PhraseDictionary dict_;
  InvertedIndex inverted_;
  ForwardIndex forward_full_;
  ForwardIndex forward_compressed_;
  PhraseListFile phrase_file_;
  double avg_doc_phrases_ = 0.0;

  /// Set when the engine was loaded from a persisted index file: the open
  /// mapping plus the absolute offsets of the persisted word-list entry
  /// runs and phrase slots, which back the disk tier's measured ranges.
  /// Cleared by Rebuild (the mapping describes the pre-rebuild bytes).
  std::unique_ptr<IndexFile> index_file_;
  MappedListLayout mapped_layout_;
  /// Outcome of the last persist_path-driven SaveToFile.
  Status persist_status_;

  std::unique_ptr<PhrasePostingIndex> postings_;  // lazy
  std::unique_ptr<WordScoreLists> word_lists_;
  double smj_fraction_ = 1.0;
  std::unique_ptr<WordIdOrderedLists> id_lists_;      // at smj_fraction_
  std::unique_ptr<DiskResidentLists> disk_lists_;     // lazy, tracks word_lists_

  /// Observed per-term query counts feeding the spill policy's hotness
  /// order (null = static df placement), plus a version bumped per
  /// install so the placement memo below invalidates. Guarded by
  /// lists_mu: exclusive to install, shared to read.
  std::shared_ptr<const TermPopularity> term_popularity_;
  uint64_t popularity_version_ = 0;

  // Memoized ResidentSetLocked() placement and its cache key (guarded by
  // Sync::resident_mu; the key fields are read under the caller's shared
  // structure lock).
  mutable std::shared_ptr<const std::unordered_set<TermId>> resident_memo_;
  mutable uint64_t resident_memo_generation_ = 0;
  mutable std::size_t resident_memo_terms_ = 0;
  mutable uint64_t resident_memo_budget_ = 0;
  mutable uint64_t resident_memo_popularity_ = 0;

  // Persistent miners so their scratch arrays are reused across queries.
  std::unique_ptr<ExactMiner> exact_;
  std::unique_ptr<GmMiner> gm_;
  std::unique_ptr<SimitsisMiner> simitsis_;

  // --- Update state (see Sync for the guarding mutexes) ----------------------
  uint64_t epoch_ = 0;                           // snapshot_mu
  uint64_t generation_ = 0;                      // snapshot_mu + lists_mu(excl)
  /// Process-unique structure id; reassigned by Rebuild (the fresh
  /// engine's id is adopted in the swap). Written under update_mu +
  /// snapshot_mu, read under either.
  uint64_t structure_version_ = NextStructureVersion();
  UpdateListener update_listener_;               // update_mu
  std::shared_ptr<const DeltaIndex> delta_;      // snapshot_mu
  UpdateStats last_update_stats_;                // snapshot_mu
  std::vector<Document> pending_inserts_;        // update_mu
  std::vector<uint8_t> insert_deleted_;          // update_mu
  std::vector<uint8_t> base_deleted_;            // update_mu; lazily sized
  std::size_t num_deleted_ = 0;                  // update_mu

  std::unique_ptr<Sync> sync_ = std::make_unique<Sync>();
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_ENGINE_H_
