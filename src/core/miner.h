#ifndef PHRASEMINE_CORE_MINER_H_
#define PHRASEMINE_CORE_MINER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/interestingness.h"
#include "core/query.h"
#include "core/scoring.h"
#include "text/types.h"

namespace phrasemine {

class CancelToken;  // common/cancel.h
class DeltaIndex;   // core/delta_index.h
struct TraceSpan;   // obs/trace.h

/// What a result is worth relative to corpus updates absorbed so far
/// (Section 4.5.1). Stamped into MineResult by MiningEngine (and merged
/// per shard by ShardedEngine).
enum class UpdateGuarantee {
  /// No update overlay was in effect: the result reflects the base corpus
  /// under the algorithm's own exact/approximate contract.
  kFresh,
  /// A delta overlay was applied and the scores are exact with respect to
  /// the updated corpus (SMJ over full lists).
  kExactUnderDelta,
  /// A delta overlay was applied but the pruning bounds are heuristic, so
  /// the top-k is approximate with respect to the updated corpus (NRA: the
  /// adjusted scores need not respect the stored list order).
  kApproximateUnderDelta,
  /// Updates were pending but the algorithm cannot consult the overlay
  /// (the count-based miners Exact/GM/Simitsis mine the base corpus).
  kStale,
};

/// Renders "fresh"/"exact-under-delta"/... for reports.
const char* UpdateGuaranteeName(UpdateGuarantee guarantee);

/// Aggregate simulated-disk I/O behind one mine (all zeros for purely
/// in-memory runs). Filled by the kNraDisk path from the owning disk
/// tier's SimulatedDisk counters; ShardedEngine sums one of these per
/// shard device and PhraseService accumulates them into its stats.
struct DiskIoStats {
  /// Device blocks fetched (cache misses, lookahead prefetches included).
  uint64_t blocks_read = 0;
  /// Fetches charged at the random (seek) rate.
  uint64_t seeks = 0;
  /// Logical bytes the algorithm requested from the device.
  uint64_t bytes = 0;

  DiskIoStats& operator+=(const DiskIoStats& other) {
    blocks_read += other.blocks_read;
    seeks += other.seeks;
    bytes += other.bytes;
    return *this;
  }
};

/// One ranked result phrase.
struct MinedPhrase {
  PhraseId phrase = kInvalidPhraseId;
  /// The algorithm's internal aggregate score (sum of logs for AND, sum of
  /// probabilities for OR, raw interestingness for the exact methods).
  double score = 0.0;
  /// The algorithm's interestingness estimate in [0, 1]-ish range; for the
  /// exact methods this equals Eq. 1 exactly.
  double interestingness = 0.0;
};

/// Result of one Mine() call: the ranked top-k plus per-run accounting used
/// by the benchmark harnesses.
struct MineResult {
  std::vector<MinedPhrase> phrases;

  /// Measured in-memory computation time.
  double compute_ms = 0.0;
  /// Charged simulated disk time (0 for purely in-memory runs). For a
  /// sharded merge this is the *slowest shard device's* charge: shards
  /// own independent disks that run in parallel, so modeled I/O latency
  /// is a makespan, not a sum.
  double disk_ms = 0.0;
  /// Simulated-disk I/O counters behind disk_ms (zeros in-memory). For a
  /// sharded merge these are summed across shard devices -- aggregate
  /// work, where disk_ms is the parallel makespan; the per-device split
  /// is in ShardedMineResult::shard_disk_io.
  DiskIoStats disk_io;
  /// Total response time under the paper's simulation protocol.
  double TotalMs() const { return compute_ms + disk_ms; }

  /// List entries consumed (NRA, scalar SMJ, OR-kernel SMJ) or landed on
  /// (AND-kernel SMJ, whose galloping intersection skips entries -- the
  /// skipped ones are the savings), or forward-list entries touched (GM).
  uint64_t entries_read = 0;
  /// Always 0: the sharded threshold exchange that counted its pruned
  /// candidates here is gone. Kept only while a benchmark still reads it.
  uint64_t candidates_pruned = 0;
  /// Average fraction of the query's lists traversed before stopping
  /// (Figure 11 metric); 1.0 when the algorithm always reads whole inputs.
  double lists_traversed_fraction = 1.0;
  /// Peak candidate-set size |C| (NRA/SMJ bookkeeping). Like
  /// entries_read, the AND-kernel SMJ path reports only the phrases its
  /// galloping intersection actually examined (the survivors), where the
  /// scalar merge counts every distinct id in the lists' union -- the
  /// gap is the work the kernel skipped, so the two paths' values are
  /// not comparable on AND queries.
  std::size_t peak_candidates = 0;
  /// Number of documents in the materialized sub-collection, when the
  /// algorithm materializes one (exact/GM/Simitsis); 0 otherwise.
  std::size_t subcollection_size = 0;

  /// Engine epoch this result was mined at (0 before any update was ever
  /// applied, or when the miner was driven directly without an engine).
  /// For results merged by ShardedEngine this is the sum of the per-shard
  /// epochs (monotone under updates); the full vector is in shard_epochs.
  uint64_t epoch = 0;
  /// Composite epoch vector: the epoch of every shard this result was
  /// mined against, in shard order. Empty for MiningEngine::Mine; one
  /// entry for a ShardedEngine that adopted a single engine. Two
  /// results are freshness-comparable only if their vectors compare
  /// element-wise; the scalar `epoch` sum exists for monotone ordering
  /// and must not be used as a cache identity on its own.
  std::vector<uint64_t> shard_epochs;
  /// Which correctness guarantee held under the update overlay, if any.
  /// A merged result carries the worst guarantee across its shards.
  UpdateGuarantee guarantee = UpdateGuarantee::kFresh;
  /// Root span of this mine's trace (obs/trace.h), filled only when
  /// MineOptions::trace was set: null by default, so untraced mines pay
  /// one pointer of storage and nothing else. Shared so result copies
  /// (cache plumbing, merged replies) do not duplicate the tree;
  /// PhraseService strips it before caching a result (a cached trace
  /// would replay a stale execution story on every hit).
  std::shared_ptr<TraceSpan> trace;
  /// OK for a completed mine. DeadlineExceeded when MineOptions::cancel
  /// fired mid-run (phrases/accounting then describe the partial execution
  /// up to the abort -- the trace carries a "cancelled" counter), IOError/
  /// Corruption when the disk tier latched an injected or real device
  /// failure. Non-OK results must not be cached or treated as a ranking.
  Status status;
};

/// Per-query knobs shared by all algorithms.
struct MineOptions {
  /// Result count k; the paper fixes k = 5 in the evaluation.
  std::size_t k = 5;
  /// Fraction of each word list to traverse (NRA run-time partial lists).
  /// SMJ ignores this: its fraction is fixed when its id-ordered lists are
  /// built (Section 4.4.1).
  double list_fraction = 1.0;
  /// NRA pruning batch size b (Section 4.5): bounds maintenance and pruning
  /// run once every `nra_batch_size` entry reads.
  std::size_t nra_batch_size = 256;
  /// OR-score expansion order (Section 4.1.3 ablation).
  OrExpansionOrder or_order = OrExpansionOrder::kFirstOrder;
  /// Optional incremental-update overlay (Section 4.5.1). When set, NRA and
  /// SMJ adjust each list entry's conditional probability with the delta
  /// before aggregation.
  const DeltaIndex* delta = nullptr;
  /// kNraDisk only: charge the final top-k phrase-text lookups to the
  /// simulated device (the Section 5.5 result-materialization cost).
  /// ShardedEngine turns this off for its scatter mines: a shard's
  /// local top-k' candidates are never materialized (billing every
  /// device k' random lookups would add a constant per-device cost that
  /// does not partition), and the merged top-k's texts are served from
  /// the router's in-memory phrase file at the gather -- the sharded
  /// device model covers word-list I/O only. See docs/disk_tier.md.
  bool charge_phrase_lookups = true;
  /// Interestingness formulation for the count-based miners (Exact, GM,
  /// Simitsis). The list-based methods (NRA/SMJ) are derived from the
  /// normalized-frequency measure and ignore this; extending the
  /// independence machinery to other measures is the paper's stated future
  /// work.
  InterestingnessMeasure measure =
      InterestingnessMeasure::kNormalizedFrequency;
  /// Opt-in per-request tracing: when true the mine allocates a span tree
  /// describing where its time went (MineResult::trace) -- per-shard
  /// scatter/exchange/fill/gather on the sharded path, traversal and disk
  /// phases in the list miners. Off by default: the untraced path is a
  /// single branch per phase, no allocations. Tracing never changes the
  /// ranked output (it is excluded from result-cache keys).
  bool trace = false;
  /// Optional cooperative cancellation token (common/cancel.h), polled at
  /// block granularity: NRA checks once every nra_batch_size entry reads
  /// (counting every read, admitted or not), SMJ/kernels once per merge
  /// block, Exact/GM once per kCancelDocStride sub-collection documents,
  /// Simitsis once per kCancelDocStride posting-list documents, sharded
  /// mines at every scatter/fill leg boundary and inside their scans,
  /// and the disk tier's charge points via the cheap flag-only form.
  /// When it fires the mine stops where it is and returns
  /// MineResult::status = DeadlineExceeded with partial accounting. Null
  /// (the default) compiles to one branch per block; the ranked output is
  /// bitwise unchanged. Not part of cache keys; the caller keeps the
  /// token alive for the duration of the mine.
  const CancelToken* cancel = nullptr;
};

/// Common interface of all five mining algorithms.
class Miner {
 public:
  virtual ~Miner() = default;

  /// Mines the top-k interesting phrases for the query.
  virtual MineResult Mine(const Query& query, const MineOptions& options) = 0;

  /// Short algorithm name for reports ("Exact", "GM", "NRA", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_MINER_H_
