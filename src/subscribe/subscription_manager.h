#ifndef PHRASEMINE_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_
#define PHRASEMINE_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/miner.h"
#include "core/query.h"
#include "core/scoring.h"
#include "index/list_entry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_engine.h"
#include "text/types.h"

namespace phrasemine {

/// What a standing query asks for. Terms are canonicalized exactly like
/// PhraseService canonicalizes ad-hoc queries (sorted, deduplicated), so a
/// subscription's top-k is comparable to the service's cached results for
/// the same term set.
struct SubscriptionRequest {
  std::vector<std::string> terms;
  QueryOperator op = QueryOperator::kAnd;
  /// Result count the subscriber sees per publish.
  std::size_t k = 5;
  /// OR-score expansion order (must match the mines being compared
  /// against; the manager re-mines with the same order).
  OrExpansionOrder or_order = OrExpansionOrder::kFirstOrder;
  /// true: every published top-k is provably equal to a fresh SMJ re-mine
  /// at that epoch -- inconclusive incremental bounds trigger a scoped
  /// re-mine (counted in subscribe_remine_total). false (best-effort):
  /// inconclusive publishes go out anyway, flagged `exact = false`; the
  /// recall bound is documented in docs/subscriptions.md (any missed
  /// phrase ranks below the last full mine's k_shadow-th boundary).
  bool exact = true;
};

/// How one phrase's membership in the published top-k changed.
enum class TopKChangeKind {
  kEntered,    ///< Not in the previous publish, in this one.
  kLeft,       ///< In the previous publish, not in this one.
  kReordered,  ///< In both, at a different rank.
  kRescored,   ///< Same rank, different score.
};

/// Renders "entered"/"left"/"reordered"/"rescored".
const char* TopKChangeKindName(TopKChangeKind kind);

/// One entry of a publish's delta against the previous publish.
struct TopKChange {
  TopKChangeKind kind = TopKChangeKind::kRescored;
  PhraseId phrase = kInvalidPhraseId;
  /// Rank in the previous publish (-1 for kEntered).
  int old_rank = -1;
  /// Rank in this publish (-1 for kLeft).
  int new_rank = -1;
  double old_score = 0.0;
  double new_score = 0.0;
};

/// One notification drained by Poll: the full top-k as of `epoch` plus the
/// delta against the subscriber's previous notification.
struct SubscriptionUpdate {
  uint64_t subscription = 0;
  /// Engine epoch of this publish (composite sum for a sharded fleet).
  uint64_t epoch = 0;
  /// True when this publish is provably equal to a fresh re-mine at
  /// `epoch`; false only for best-effort subscriptions that published
  /// through an inconclusive bound.
  bool exact = true;
  /// True for the bootstrap publish right after Subscribe.
  bool initial = false;
  std::vector<MinedPhrase> topk;
  std::vector<TopKChange> changes;
};

/// Point-in-time view of a subscription's current published state
/// (independent of the notification queue; Poll never has to be caught up
/// for Snapshot to be current).
struct SubscriptionState {
  uint64_t epoch = 0;
  bool exact = true;
  std::vector<MinedPhrase> topk;
};

/// Sizing and policy knobs for SubscriptionManager.
struct SubscriptionManagerOptions {
  /// Bounded per-subscriber notification queue: when a subscriber stops
  /// polling, the oldest notification is dropped to admit the newest
  /// (drop-oldest, counted in subscribe_dropped_total) -- the PR 9
  /// admission philosophy applied to fan-out. Clamped to >= 1.
  std::size_t queue_capacity = 64;
  /// Bounded update-event queue between the engine's ingest thread and
  /// the worker. Overflow drops the data event (ingest never blocks) and
  /// latches a lost-events flag: every subscription is re-mined at the
  /// next processed event (counted in subscribe_events_dropped_total).
  /// Clamped to >= 1.
  std::size_t event_capacity = 256;
  /// Shadow-set headroom beyond k: the manager tracks the top
  /// (k + shadow_pad) qualifying phrases so rank churn around the k-th
  /// floor stays conclusive without re-mining. Clamped to >= 1.
  std::size_t shadow_pad = 16;
  /// Per-batch fan-out deadline in milliseconds (0 = none): when
  /// processing one batch across all subscriptions exceeds it, the
  /// remaining subscriptions are marked dirty (re-mined on the next
  /// event) instead of stalling the event queue, and any in-flight
  /// scoped re-mine is cancelled through the same token (a cancelled
  /// mine is never installed). Counted in
  /// subscribe_fanout_deadline_total.
  double fanout_deadline_ms = 0.0;
  /// When true the worker keeps a per-batch trace span tree readable via
  /// LastBatchTrace() -- the same TraceSpan shape the mines emit.
  bool trace = false;
  /// Metric registry the subscribe_* metrics land in; null uses
  /// MetricsRegistry::Default(). PhraseService passes its own registry.
  MetricsRegistry* metrics = nullptr;
};

/// Standing queries over the live update stream (the ROADMAP's
/// "incremental maintenance of standing top-k subscriptions" item).
///
/// A subscription registers a phrase query once; from then on every
/// ApplyUpdate batch is turned into the subscription's top-k *delta*
/// incrementally from the batch's co-deltas instead of re-mining:
///
///  * The manager installs the fleet's update listener
///    (ShardedEngine::SetUpdateListener; a single engine is served as an
///    adopted one-shard fleet, whose listener wraps the engine's own) and
///    only enqueues the immutable ShardedUpdateEvent -- the ingest thread
///    is never blocked by subscription work, slow subscribers included.
///  * A single worker thread drains events in epoch order. Per
///    subscription it maintains a shadow set S: the top (k + shadow_pad)
///    qualifying phrases with *exact* scores, plus a rank bound B -- the
///    rank (score, PhraseId) of the last shadow entry retained from the
///    last full mine. Invariant: every phrase outside S either does not
///    qualify or ranks strictly worse than B.
///  * Per batch, exactly the event's touched phrases (the phrases whose
///    df/co-deltas the batch moved -- the complete "can have changed"
///    set) are rescored with the engine's own delta-adjustment arithmetic
///    (summed per-shard AdjustedShardDf/AdjustedShardCodf integer
///    supports -- on one shard, bitwise DeltaIndex::AdjustedProb) and
///    merged into S. The first k of S equal a fresh re-mine's top-k whenever
///    S[k-1] ranks at or above B (no outside phrase can rank above the
///    k-th published entry) -- the proof sketch is in
///    docs/subscriptions.md.
///  * Only when that bound is inconclusive (the floor sank below B) does
///    an exact subscription fall back to a scoped re-mine at k + pad,
///    counted in subscribe_remine_total so the incremental hit-rate is
///    observable. Best-effort subscriptions publish anyway, flagged
///    approximate.
///
/// Exactness requires full SMJ lists: Subscribe fails with
/// FailedPrecondition when the fleet's id-ordered lists are truncated
/// (ShardedEngine::smj_fraction() < 1, possible on an adopted engine).
/// Rebuild / RefreshDictionary events invalidate all derived state
/// (PhraseIds may be reassigned) and trigger re-mines.
///
/// Threading: Subscribe/Unsubscribe/Poll/Snapshot/Flush are safe from any
/// thread, concurrently with engine ingest, mines and rebuilds. The
/// manager must be destroyed before its engine; destruction detaches the
/// listener first, so no callback can outlive it.
class SubscriptionManager {
 public:
  using Options = SubscriptionManagerOptions;

  /// Attaches to a single engine through an adopted one-shard fleet
  /// (ShardedEngine::Adopt). The engine must outlive the manager and must
  /// not have another update listener; its direct ApplyUpdate/Rebuild
  /// calls reach the manager too.
  explicit SubscriptionManager(MiningEngine* engine, Options options = {});

  /// Attaches to a fleet (installs its update listener and starts the
  /// worker); per-shard deltas arrive pre-merged under the global PhraseId
  /// space (ShardedUpdateEvent). The fleet must outlive the manager.
  explicit SubscriptionManager(ShardedEngine* engine, Options options = {});

  ~SubscriptionManager();

  SubscriptionManager(const SubscriptionManager&) = delete;
  SubscriptionManager& operator=(const SubscriptionManager&) = delete;

  /// Registers a standing query and returns its id. The initial top-k is
  /// mined asynchronously (the bootstrap publish arrives with
  /// SubscriptionUpdate::initial set; Flush() forces it through). Fails
  /// with InvalidArgument for an empty term set / k = 0 / unknown terms,
  /// FailedPrecondition when exactness cannot be guaranteed (truncated
  /// SMJ lists).
  Result<uint64_t> Subscribe(const SubscriptionRequest& request);

  /// Deregisters; pending notifications are discarded. NotFound for
  /// unknown ids.
  Status Unsubscribe(uint64_t id);

  /// Drains up to max_updates pending notifications, blocking up to
  /// wait_ms (0 = non-blocking) for the first one. Returns an empty
  /// vector on timeout; NotFound for unknown ids.
  Result<std::vector<SubscriptionUpdate>> Poll(uint64_t id,
                                               std::size_t max_updates = 16,
                                               double wait_ms = 0.0);

  /// The subscription's current published top-k (see SubscriptionState).
  Result<SubscriptionState> Snapshot(uint64_t id) const;

  /// Blocks until every event and bootstrap enqueued so far has been
  /// fully processed (tests call Ingest -> Flush -> Snapshot to compare
  /// against a fresh mine at the same epoch).
  void Flush();

  std::size_t num_subscriptions() const;

  /// Trace of the most recently processed batch (Options::trace only;
  /// null otherwise): one child span per re-mined subscription plus
  /// aggregate rescore counters.
  std::shared_ptr<const TraceSpan> LastBatchTrace() const;

 private:
  /// Rank comparator shared by every shadow-set decision: higher score
  /// first, ties to the smaller PhraseId -- exactly TopKCollector's
  /// ordering, so shadow order is mine order.
  static bool RanksBetter(double score_a, PhraseId a, double score_b,
                          PhraseId b) {
    if (score_a != score_b) return score_a > score_b;
    return a < b;
  }

  /// One queued message: a fleet update event or a control command.
  /// Control commands (bootstrap, i.e. "mine the initial state of
  /// subscription `subscription`") are never dropped; data events are
  /// subject to Options::event_capacity.
  struct Msg {
    enum class Kind { kEvent, kBootstrap };
    Kind kind = Kind::kBootstrap;
    ShardedUpdateEvent event;
    uint64_t subscription = 0;
  };

  struct Sub;

  /// Outcome of rescoring one phrase under one batch's deltas.
  struct Rescored {
    bool qualifies = false;
    double score = 0.0;
    double interestingness = 0.0;
  };

  /// Both public constructors land here; `adopted` owns the one-shard
  /// fleet of the MiningEngine* form (null for a caller's fleet).
  SubscriptionManager(ShardedEngine* fleet,
                      std::unique_ptr<ShardedEngine> adopted, Options options);

  void EnqueueEvent(Msg msg);
  void WorkerLoop();
  void Handle(Msg& msg, bool events_lost);
  void ProcessDataEvent(Msg& msg, bool events_lost);
  /// Incremental maintenance of one subscription under one batch; returns
  /// false when the publish bound was inconclusive under an exact
  /// guarantee (caller re-mines).
  bool IncrementalStep(Sub& sub, const Msg& msg,
                       const std::vector<uint64_t>& event_vec);
  /// Scoped full re-mine (bootstrap or fallback); cancelled mines are not
  /// installed and leave the subscription dirty.
  void Remine(Sub& sub, const CancelToken* cancel, bool bootstrap,
              TraceSpan* span);
  /// Exact rescore of `touched` under the event's deltas, in touched
  /// order; `ok` turns false when the engine's structures moved past the
  /// event (caller re-mines).
  std::vector<Rescored> RescoreTouched(const Sub& sub, const Msg& msg,
                                       const std::vector<PhraseId>& touched,
                                       bool* ok);
  void Publish(Sub& sub, bool exact, bool initial);

  Options options_;
  std::unique_ptr<ShardedEngine> adopted_;
  ShardedEngine* fleet_;

  // Cached metric handles (stable pointers; see MetricsRegistry).
  Gauge* subscriptions_gauge_ = nullptr;
  Counter* batches_total_ = nullptr;
  Counter* incremental_total_ = nullptr;
  Counter* remine_total_ = nullptr;
  Counter* notifications_total_ = nullptr;
  Counter* dropped_total_ = nullptr;
  Counter* events_dropped_total_ = nullptr;
  Counter* fanout_deadline_total_ = nullptr;
  Counter* touched_total_ = nullptr;

  /// Guards subs_, next_id_ and every Sub's published state and
  /// notification queue; subs_cv_ wakes Poll waiters.
  mutable std::mutex subs_mu_;
  std::condition_variable subs_cv_;
  std::map<uint64_t, std::shared_ptr<Sub>> subs_;
  uint64_t next_id_ = 1;

  /// Guards the event queue and the drain bookkeeping. The engine's
  /// ingest thread only ever takes this mutex (briefly, to enqueue);
  /// subscription work never runs on it.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<Msg> queue_;
  bool events_lost_ = false;
  bool processing_ = false;
  bool shutdown_ = false;

  // Worker-only state (no locks needed).
  std::vector<uint64_t> prev_event_vec_;
  bool prev_event_valid_ = false;

  /// Last processed batch's trace root (Options::trace only), swapped in
  /// whole under subs_mu_.
  std::shared_ptr<TraceSpan> last_batch_trace_;

  std::thread worker_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_
