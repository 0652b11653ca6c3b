#ifndef PHRASEMINE_SERVICE_SERVICE_H_
#define PHRASEMINE_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/miner.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/planner.h"
#include "service/thread_pool.h"
#include "shard/sharded_engine.h"
#include "subscribe/subscription_manager.h"

namespace phrasemine {

/// Admission-control / load-shedding policy for PhraseService::Submit.
/// Disabled by default (max_queue_depth == 0): Submit keeps the legacy
/// behavior of blocking on the pool's bounded queue for backpressure.
struct AdmissionOptions {
  /// Queue-depth bound: a Submit observing at least this many queued (not
  /// yet running) tasks is shed immediately with ResourceExhausted instead
  /// of blocking. 0 disables admission control (including the cost gate).
  std::size_t max_queue_depth = 0;
  /// Shed deadline-carrying requests that are already hopeless at submit
  /// time: projected wait (queue_depth x EWMA of executed latency, divided
  /// across the workers) plus the execution estimate exceeding the
  /// remaining deadline means the query would only burn pool time to
  /// return DeadlineExceeded anyway. Requests without a deadline are never
  /// cost-gated, only depth-bounded.
  bool cost_gate = true;
  /// Converts the planner's abstract cost units (modeled entries touched)
  /// into milliseconds for the cost gate's execution estimate; the gate
  /// takes max(EWMA, planner_cost * cost_to_ms). 0 (default) relies on the
  /// measured EWMA alone and skips the extra planning pass at admission.
  double cost_to_ms = 0.0;
};

/// Sizing and policy knobs for PhraseService.
struct PhraseServiceOptions {
  ThreadPoolOptions pool;
  PlannerOptions planner;
  /// Sharded LRU cache of full MineResults keyed by the request:
  /// canonicalized query + forced algorithm (or "planned") + mining
  /// options + the fleet's SMJ fraction and epoch vector (ResultCacheKey).
  std::size_t result_cache_shards = 8;
  std::size_t result_cache_bytes = 8u << 20;
  bool enable_result_cache = true;
  /// When an Ingest crosses a rebuild threshold, rebuild on this service's
  /// thread pool (one at a time; queries keep flowing while it runs):
  /// only the shards that crossed their own threshold rebuild
  /// (shard-by-shard blast radius); a single engine rebuilds whole.
  /// Disable to manage rebuilds externally.
  bool enable_auto_rebuild = true;
  /// Slow-query log threshold in milliseconds: queries at or above it are
  /// appended to a bounded in-memory log (PhraseService::slow_queries),
  /// with the explain tree attached when the request was traced. 0 (the
  /// default) disables the log.
  double slow_query_ms = 0.0;
  /// Entries the slow-query log retains (oldest evicted first).
  std::size_t slow_query_log_capacity = 64;
  /// Load-shedding policy (see AdmissionOptions); off by default.
  AdmissionOptions admission;
  /// Feedback-driven placement cadence: every this many served queries
  /// the service re-derives the disk tier's hotness order from the
  /// per-term query counters (service_term_queries_total{term=...}) and
  /// installs it via SetTermPopularity -- see RefreshPlacement(). 0 (the
  /// default) disables the automatic cadence; RefreshPlacement() can
  /// still be called explicitly. Only useful on disk-backed engines;
  /// harmless (placement is simply never consulted) otherwise.
  std::size_t placement_refresh_interval = 0;
  /// Standing-query knobs (queue bounds, shadow headroom, fan-out
  /// deadline; see docs/subscriptions.md). The SubscriptionManager is
  /// created lazily on the first Subscribe, so services that never
  /// subscribe keep a listener-free, zero-cost ingest path. The `metrics`
  /// field is overridden with this service's registry.
  SubscriptionManagerOptions subscriptions;
};

/// One unit of work for the service.
struct ServiceRequest {
  Query query;
  MineOptions options;
  /// When set, bypasses the planner and runs exactly this algorithm.
  std::optional<Algorithm> algorithm;
  /// Total time budget in milliseconds, measured from Submit (queue wait
  /// counts against it). > 0 makes the service materialize a CancelToken
  /// shared by every execution leg; an expired request unwinds with
  /// ServiceReply::status == DeadlineExceeded and whatever partial
  /// accounting the miners had produced. 0 (default): no deadline.
  double deadline_ms = 0.0;
  /// Caller-owned cancellation handle; set to observe or trigger
  /// cancellation externally (Cancel() from any thread). When null and
  /// deadline_ms > 0 the service creates one internally. The service keeps
  /// a reference for the lifetime of the request, so the caller may drop
  /// theirs at any time.
  std::shared_ptr<CancelToken> cancel;
};

/// What the service hands back per query.
struct ServiceReply {
  /// Typed outcome: OK for a served ranking; DeadlineExceeded when the
  /// request's deadline fired before or during execution (result then
  /// carries partial accounting, not a ranking); ResourceExhausted when
  /// admission control shed the request or the pool rejected it;
  /// Unavailable for submits after Shutdown(); InvalidArgument for
  /// malformed requests (no terms, k == 0); IOError/Corruption when the
  /// disk tier surfaced a device error. Mirrors result.status when the
  /// failure happened inside a miner.
  Status status;
  MineResult result;
  /// The ranked phrases' texts, aligned with result.phrases, as
  /// ShardedEngine::Mine returned them: filled by built fleets, empty on a
  /// service over a single engine (an adopted fleet), whose ids
  /// MiningEngine::PhraseText resolves. result.phrases[i].phrase is the
  /// global PhraseId either way -- every shard shares one phrase set.
  std::vector<std::string> phrase_texts;
  /// How the algorithm was chosen (reason == "forced by caller" when the
  /// request pinned one). A result-cache hit carries the plan stored with
  /// the cached result: the decision that mined it.
  PlanDecision plan;
  /// Engine epoch the result is valid for (mirrors result.epoch: the sum
  /// of shard epochs, with the full composite vector in
  /// result.shard_epochs). After an Ingest returns epoch E, every
  /// subsequently submitted query replies with epoch >= E -- stale cache
  /// entries are unreachable by key.
  uint64_t epoch = 0;
  bool result_cache_hit = false;
  /// Execution latency. A result-cache hit served on the submitting
  /// thread runs from the Submit (or MineSync) call to the ready reply.
  /// A request that reached the pool (a miss, or a duplicate served on
  /// the worker from its twin's entry) is measured from the moment a
  /// worker starts it: time spent queued in the thread pool is NOT
  /// included, so under saturation user-perceived latency is higher.
  double latency_ms = 0.0;
  /// Root of the request's span tree (plan -> cache -> mine phases), set
  /// only when MineOptions::trace was on; null otherwise. Render with
  /// TraceSpan::Explain() or ToJson().
  std::shared_ptr<TraceSpan> trace;
};

/// Aggregated service counters.
struct ServiceStats {
  uint64_t queries = 0;
  uint64_t planned = 0;
  uint64_t forced = 0;
  /// Actual mine executions per algorithm, indexed by
  /// static_cast<int>(Algorithm). Result-cache hits are excluded -- these
  /// counters attribute compute, and a hit costs none.
  std::array<uint64_t, 6> per_algorithm{};
  CacheStats result_cache;
  /// The serving engines' own word lists (ShardedEngine::word_list_stats):
  /// hits/misses of MiningEngine::EnsureWordLists lookups, entries and
  /// bytes of the built lists. The lists have no byte budget, so
  /// inserts = misses and evictions/capacity stay 0.
  CacheStats word_list_cache;
  ThreadPoolStats pool;
  /// Latency percentiles over all served queries, from the registry's
  /// log-scale microsecond histogram (4 sub-buckets per octave, ~19%
  /// value resolution -- twice the old log2 bucketing's).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;
  /// Cumulative simulated-disk I/O across executed queries (kNraDisk
  /// paths only; zeros otherwise). These sum every shard device's
  /// counters -- aggregate device work, the per-query split lives in
  /// ShardedMineResult::shard_disk_io.
  DiskIoStats disk_io;
  /// Live-update counters: current engine epoch, Ingest/IngestBatch calls
  /// served, background rebuilds completed, and the engine's per-epoch
  /// accounting as of the last update.
  uint64_t epoch = 0;
  uint64_t ingests = 0;
  uint64_t rebuilds = 0;
  /// Robustness counters: requests shed by admission control (or rejected
  /// by the pool) and requests that returned DeadlineExceeded.
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  /// Feedback-placement refreshes installed (manual RefreshPlacement
  /// calls plus automatic cadence firings that had fresh counts).
  uint64_t placement_refreshes = 0;
  UpdateStats update;

  std::string ToString() const;
};

/// Concurrent serving front door over a ShardedEngine: a bounded thread
/// pool executes queries, the cost planner picks the algorithm per query,
/// and a sharded LRU cache of full results absorbs repeated work.
///
/// One serving path: every request goes through the fleet. A service
/// built over a single MiningEngine adopts it as a one-shard fleet
/// (ShardedEngine::Adopt) whose calls pass straight through to the
/// engine, so its replies are bitwise the engine's own mines; only
/// ShardedEngine knows whether one engine or a fleet serves a request.
/// NRA and SMJ read the engines' own lazily built word lists.
///
/// Queries are canonicalized (terms sorted, deduplicated) before planning
/// and execution, so every spelling of a term set hits the same cache
/// entry and produces byte-identical results.
///
/// Request path: Submit canonicalizes, validates, runs the admission depth
/// check and probes the result cache on the caller's thread. A hit is
/// answered there -- a ready future, with no plan and no pool hand-off --
/// and replies with the plan stored beside the cached result. Only a miss
/// (after the admission cost gate) goes to the pool, carrying its
/// canonical query and cache key; the worker probes once more before it
/// plans, so a duplicate queued behind its twin hits the twin's entry.
/// MineSync runs the same probe. The cache
/// key holds the request (the forced algorithm, or "planned"), not the
/// plan, so a planned request keeps the routing of the miss that filled
/// its entry until the epoch vector moves (docs/architecture.md).
///
/// Live updates: Ingest/IngestBatch apply document churn to the engines
/// synchronously (the delta overlay and new epoch are visible before the
/// call returns), so no query submitted afterwards can be served from a
/// pre-update epoch. Invalidation is by construction, not by flush:
/// result-cache keys carry the composite epoch vector, making stale
/// entries unreachable, while the engines' word lists stay valid across
/// delta epochs (the miners correct scores at read time; a rebuild
/// re-warms them). When an ingest crosses a rebuild threshold and
/// enable_auto_rebuild is on, the flagged shards rebuild on this pool in
/// the background.
///
/// Deadlines and shedding: a request carrying deadline_ms (or an explicit
/// CancelToken) is polled cooperatively at block granularity throughout
/// execution; when it fires, the reply resolves with status
/// DeadlineExceeded and partial accounting instead of a ranking. With
/// AdmissionOptions::max_queue_depth > 0, Submit sheds rather than blocks:
/// a full admission queue -- or a deadline the cost gate projects as
/// hopeless -- resolves the future immediately with ResourceExhausted, so
/// overload degrades by dropping excess queries, not by growing latency
/// unboundedly. See docs/robustness.md.
///
/// Thread-safety: all public members may be called from any thread.
/// Shutdown (or destruction) drains queued work; Submit after shutdown
/// resolves the future immediately with status Unavailable (it no longer
/// degrades to inline execution -- a shut-down service stops doing work).
/// Every future returned by Submit is always fulfilled, never dangles:
/// the pool's submit verdict is atomic against shutdown (see ThreadPool's
/// contract), and on `false` the service resolves the promise itself.
class PhraseService {
 public:
  /// One cached service result: the MineResult plus the phrase texts the
  /// fleet returned with it, and the plan that mined it (a hit replies
  /// with that plan; it does not plan again).
  struct CachedResult {
    MineResult result;
    std::vector<std::string> texts;
    PlanDecision plan;
  };

  /// Serves a single engine through an adopted one-shard fleet
  /// (ShardedEngine::Adopt). `engine` must outlive the service; it may be
  /// shared with other direct callers as long as they respect its
  /// threading contract.
  explicit PhraseService(MiningEngine* engine,
                         PhraseServiceOptions options = {});

  /// Serves through a caller-owned ShardedEngine (must outlive the
  /// service): queries scatter-gather across its shards, ingest routes to
  /// owning shards, and auto-rebuild rebuilds only the shards that
  /// crossed their threshold.
  explicit PhraseService(ShardedEngine* sharded,
                         PhraseServiceOptions options = {});
  ~PhraseService();

  PhraseService(const PhraseService&) = delete;
  PhraseService& operator=(const PhraseService&) = delete;

  /// Enqueues one query; blocks only when the submission queue is full.
  /// A result-cache hit resolves on the calling thread and returns a
  /// ready future, as do invalid requests and shed ones.
  std::future<ServiceReply> Submit(ServiceRequest request);

  /// Enqueues a batch; futures are in request order.
  std::vector<std::future<ServiceReply>> SubmitBatch(
      std::vector<ServiceRequest> requests);

  /// Runs one query synchronously on the calling thread (no queueing):
  /// the same cache probe as Submit, then on a miss the mine itself.
  ServiceReply MineSync(const ServiceRequest& request);

  // --- Live updates ----------------------------------------------------------

  /// Inserts one document. Synchronous: on return the update is absorbed
  /// and the returned stats carry the new epoch.
  UpdateStats Ingest(UpdateDoc doc);

  /// Applies one batch of inserts/deletes; same synchronous contract.
  /// May schedule a background rebuild (see enable_auto_rebuild).
  UpdateStats IngestBatch(const UpdateBatch& batch);

  /// Re-derives the disk tier's placement from observed traffic: reads
  /// the per-term query counters accumulated since the previous refresh
  /// (a drift-tracking window, not the lifetime cumulative), installs
  /// them through SetTermPopularity (broadcast to every shard), and bumps
  /// service_placement_refreshes_total. The next kNraDisk mine lazily
  /// re-places its resident sets in
  /// observed-count order; the planner's priors follow the same
  /// snapshot. A refresh with no new queries since the last one keeps
  /// the current placement (returns false, no counter bump). Safe from
  /// any thread, including concurrently with queries -- this is the
  /// explicit form of the placement_refresh_interval cadence.
  bool RefreshPlacement();

  // --- Standing queries ------------------------------------------------------

  /// Registers a standing top-k query over the update stream (see
  /// SubscriptionManager::Subscribe for semantics and failure modes). The
  /// manager is created lazily here over this service's fleet, with its
  /// metrics in this service's registry.
  Result<uint64_t> Subscribe(const SubscriptionRequest& request);

  /// Deregisters a subscription; NotFound for unknown ids (including any
  /// id before the first Subscribe ever created the manager).
  Status Unsubscribe(uint64_t subscription);

  /// Drains up to max_updates pending notifications for one subscription,
  /// blocking up to wait_ms for the first (see SubscriptionManager::Poll).
  Result<std::vector<SubscriptionUpdate>> PollSubscription(
      uint64_t subscription, std::size_t max_updates = 16,
      double wait_ms = 0.0);

  /// The subscription's current published top-k, independent of the
  /// notification queue (see SubscriptionManager::Snapshot).
  Result<SubscriptionState> SubscriptionSnapshot(uint64_t subscription) const;

  /// The lazily created subscription manager, or nullptr before the first
  /// Subscribe. Tests use it for Flush() and LastBatchTrace().
  SubscriptionManager* subscriptions() const {
    return subscriptions_ptr_.load(std::memory_order_acquire);
  }

  /// Stops intake and drains in-flight work; idempotent.
  void Shutdown();

  /// Aggregated counters, assembled as a thin view over one
  /// metrics_snapshot() (plus the engine's live update accounting).
  ServiceStats stats() const;

  /// The service's metric registry: every counter behind stats() lives
  /// here under the names cataloged in docs/observability.md, alongside
  /// the pool's and the result cache's metrics. Export with
  /// Snapshot().ToPrometheusText() / ToJson().
  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }

  /// Point-in-time copy of every metric in metrics().
  MetricsSnapshot metrics_snapshot() const { return registry_.Snapshot(); }

  /// One slow-query log entry (see PhraseServiceOptions::slow_query_ms).
  struct SlowQueryEntry {
    /// "algorithm op k=..: terms=[...]" summary of the canonical request.
    std::string description;
    double latency_ms = 0.0;
    /// Rendered explain tree when the request was traced; empty otherwise.
    std::string explain;
  };

  /// Snapshot of the slow-query log, oldest first.
  std::vector<SlowQueryEntry> slow_queries() const;

  /// The fleet's shard 0 -- the adopted engine itself on a single-engine
  /// service -- resolved at call time through ShardedEngine::shard's
  /// contract: a ShardedEngine::RefreshDictionary destroys and replaces a
  /// built fleet, so neither call this concurrently with one nor hold the
  /// reference across one (use Submit/MineSync -- the refresh-safe
  /// surface -- for anything that must overlap a refresh).
  const MiningEngine& engine() const { return fleet_->shard(0); }
  /// The fleet serving this instance (an adopted one-shard fleet on a
  /// single-engine service); never null.
  const ShardedEngine* sharded() const { return fleet_; }
  const PhraseServiceOptions& options() const { return options_; }

 private:
  /// Both public constructors land here; `adopted` owns the one-shard
  /// fleet of the MiningEngine* form (null for a caller's fleet).
  PhraseService(ShardedEngine* fleet, std::unique_ptr<ShardedEngine> adopted,
                PhraseServiceOptions options);

  /// A request after the work Submit and MineSync do on the caller's
  /// thread: the canonical query, the options the fleet mines with and the
  /// result-cache key. A miss carries it to the pool, so the worker builds
  /// none of it again.
  struct Prepared {
    /// InvalidArgument for a malformed request (see ValidateRequest).
    Status status;
    Query canonical;
    /// The request's options minus any caller delta (the fleet applies
    /// its engines' own overlays), with `cancel` pointing at `token`.
    MineOptions options;
    std::optional<Algorithm> algorithm;
    std::shared_ptr<CancelToken> token;
    bool caller_delta = false;
    /// Empty when the request bypasses the cache (cache off, caller
    /// delta, invalid request).
    std::string key;
    /// Request span root and its plan child; null when tracing is off.
    std::shared_ptr<TraceSpan> trace;
    TraceSpan* plan_span = nullptr;
  };

  /// Canonicalizes, validates and keys `request`; `token` is its
  /// materialized cancel token (null without a deadline or caller token).
  Prepared Prepare(const ServiceRequest& request,
                   std::shared_ptr<CancelToken> token) const;
  /// The one result-cache probe, shared by Submit, the pool's miss task
  /// and MineSync: the served reply on a hit (stored plan, no planning),
  /// nullopt on a miss. A request whose deadline already expired is never
  /// served from the cache; it takes the miss path, which refuses it.
  /// `watch` started when the request arrived (or reached its worker).
  /// Submit's look is not `last_look`: its miss is neither counted nor
  /// traced, because the worker looks again before it mines and a
  /// duplicate queued behind its twin then hits the twin's entry.
  std::optional<ServiceReply> Probe(const Prepared& prepared,
                                    const StopWatch& watch, bool last_look);
  /// The miss path: plan (unless forced), mine, fill the cache.
  ServiceReply Execute(const Prepared& prepared, const StopWatch& watch);
  /// A reply that carries only `status` (plus the trace root and latency).
  static ServiceReply Refusal(const Prepared& prepared, Status status,
                              const StopWatch& watch);
  /// Admission depth bound, consulted by Submit before the cache probe
  /// when admission control is enabled (max_queue_depth > 0): non-OK
  /// (ResourceExhausted) means shed -- the caller resolves the future with
  /// it without ever queueing the task. `*depth` is the queue depth seen.
  Status AdmitDepth(std::size_t* depth);
  /// Admission cost gate for a miss (it may run a plan, so a hit never
  /// pays for it): sheds a deadline the projected wait plus execution
  /// cannot meet. `depth` is what AdmitDepth saw.
  Status AdmitCost(const Prepared& prepared, std::size_t depth);
  /// Shared request validation: InvalidArgument for a term-less canonical
  /// query or k == 0. Unknown terms are NOT an error -- they mine empty
  /// lists and return an empty ranking with status OK, matching the
  /// engine's own semantics.
  static Status ValidateRequest(const Query& canonical,
                                const MineOptions& options);
  /// `shard_flags` is the per-shard rebuild recommendation vector (only
  /// flagged shards rebuild).
  void MaybeScheduleRebuild(std::vector<uint8_t> shard_flags);
  /// `disk_io` is the executed mine's simulated-disk charge (zeros for
  /// in-memory algorithms and cache hits); accumulated into stats().
  void RecordQuery(Algorithm algorithm, bool forced, bool executed,
                   double latency_ms, const DiskIoStats& disk_io = {});
  /// Bumps service_term_queries_total{term=...} for every canonical
  /// query term (cache hits included -- the signal is demand, not
  /// compute) and fires RefreshPlacement() when the cadence elapses: on
  /// the pool when `post_refresh` (the caller-thread hit path, whose
  /// caller never pays for a refresh), inline otherwise.
  void CountTermQueries(const Query& canonical, bool post_refresh);
  /// Resolves the service's registry metric handles.
  void InitMetrics();
  /// Appends to the slow-query log when the reply crossed the threshold.
  void MaybeLogSlowQuery(const Query& canonical, Algorithm algorithm,
                         const ServiceReply& reply);

  /// The adopted one-shard fleet of a single-engine service (null when
  /// serving a caller's fleet), and the fleet every request goes to.
  std::unique_ptr<ShardedEngine> adopted_;
  ShardedEngine* fleet_;
  PhraseServiceOptions options_;
  /// Declared before the pool and cache: they are constructed with (and
  /// publish into) this registry, and metric handles must outlive them.
  MetricsRegistry registry_;
  ShardedLruCache<std::string, std::shared_ptr<const CachedResult>>
      result_cache_;

  // Registry metric handles (stable pointers into registry_), resolved by
  // InitMetrics(). RecordQuery and the ingest/rebuild paths touch only
  // these relaxed-atomic handles -- no stats mutex.
  Counter* queries_total_ = nullptr;
  Counter* planned_total_ = nullptr;
  Counter* forced_total_ = nullptr;
  Counter* ingests_total_ = nullptr;
  Counter* rebuilds_total_ = nullptr;
  Counter* slow_queries_total_ = nullptr;
  Counter* placement_refreshes_total_ = nullptr;
  /// Robustness metrics: service_shed_total counts requests resolved with
  /// ResourceExhausted before execution (admission depth bound, cost gate,
  /// pool rejection storms); service_deadline_exceeded_total counts
  /// replies that resolved DeadlineExceeded; the admission-depth gauge
  /// samples the pool queue depth each time the gate runs (its Max() is
  /// the high-water mark the shed decisions actually saw).
  Counter* shed_total_ = nullptr;
  Counter* deadline_exceeded_total_ = nullptr;
  Gauge* admission_depth_ = nullptr;
  std::array<Counter*, 6> algorithm_total_{};
  Counter* disk_blocks_total_ = nullptr;
  Counter* disk_seeks_total_ = nullptr;
  Counter* disk_bytes_total_ = nullptr;
  Counter* exchange_pruned_total_ = nullptr;
  Counter* fill_slots_total_ = nullptr;
  /// Query latency in microseconds (log-scale; quantiles in stats()).
  Histogram* latency_us_ = nullptr;
  /// Per-shard disk-tier counters, indexed by shard.
  std::vector<Counter*> shard_disk_blocks_;
  std::vector<Counter*> shard_disk_seeks_;
  std::vector<Counter*> shard_disk_bytes_;

  /// Feedback-placement state: per-term counter handles (stable registry
  /// pointers, keyed by TermId so RefreshPlacement can read values back
  /// without parsing metric names) and the per-term counts already
  /// installed by the previous refresh -- the delta between a counter
  /// and its installed floor is the refresh window's observed demand.
  /// Counting takes the lock shared (the counters are atomic); creating
  /// a counter and RefreshPlacement take it exclusively.
  mutable std::shared_mutex term_counts_mu_;
  std::unordered_map<TermId, Counter*> term_counters_;
  std::unordered_map<TermId, uint64_t> installed_counts_;
  /// Queries since the cadence last fired (placement_refresh_interval).
  std::atomic<uint64_t> queries_since_refresh_{0};

  /// EWMA of executed-query latency in microseconds (alpha = 1/8,
  /// relaxed-atomic; races lose an update, never corrupt). Feeds the
  /// admission cost gate's wait/execute projection; 0 until the first
  /// executed query completes (the gate then only depth-bounds).
  std::atomic<uint64_t> ewma_latency_us_{0};

  /// Bounded slow-query log (options_.slow_query_ms threshold).
  mutable std::mutex slow_mu_;
  std::deque<SlowQueryEntry> slow_log_;

  /// One background rebuild at a time; set when scheduled, cleared by the
  /// pool task when the rebuild finishes.
  std::atomic<bool> rebuild_inflight_{false};

  /// Standing-query manager, created under subscriptions_mu_ by the first
  /// Subscribe and read lock-free through the atomic pointer elsewhere.
  /// Declared after adopted_ so destruction detaches its fleet listener
  /// and joins its worker while the engines are still alive.
  mutable std::mutex subscriptions_mu_;
  std::unique_ptr<SubscriptionManager> subscriptions_;
  std::atomic<SubscriptionManager*> subscriptions_ptr_{nullptr};

  /// Set by Shutdown() before the pool stops: Submit then answers
  /// Unavailable without probing the cache (an atomic, so the hit path
  /// takes no pool lock to read it).
  std::atomic<bool> shut_down_{false};

  ThreadPool pool_;  // Last member: workers must die before the cache.
};

}  // namespace phrasemine

#endif  // PHRASEMINE_SERVICE_SERVICE_H_
