#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/stopwatch.h"

namespace phrasemine {

namespace {

/// Approximate bytes a cached result pins in memory.
std::size_t ResultCharge(const std::string& key,
                         const PhraseService::CachedResult& cached) {
  std::size_t bytes = key.size() + sizeof(PhraseService::CachedResult) +
                      cached.result.phrases.size() * sizeof(MinedPhrase) +
                      cached.result.shard_epochs.size() * sizeof(uint64_t) +
                      64;
  for (const std::string& text : cached.texts) bytes += text.size() + 16;
  bytes += cached.plan.terms.size() * sizeof(TermPlanStats) +
           cached.plan.estimated_costs.size() *
               sizeof(std::pair<Algorithm, double>) +
           cached.plan.reason.size();
  return bytes;
}

/// Latency sample in whole microseconds (the unit service_latency_us
/// records in); sub-microsecond samples land in the histogram's first
/// bucket rather than vanishing.
uint64_t LatencyMicros(double latency_ms) {
  return static_cast<uint64_t>(std::max(1.0, latency_ms * 1000.0 + 0.5));
}

std::future<ServiceReply> ReadyFuture(ServiceReply reply) {
  std::promise<ServiceReply> promise;
  promise.set_value(std::move(reply));
  return promise.get_future();
}

/// The request's cancel token: the caller's own, or one materialized from
/// deadline_ms at arrival so queue wait counts against the deadline -- a
/// DeadlineExceeded reply then reflects user-perceived time, not just
/// execution time.
std::shared_ptr<CancelToken> RequestToken(const ServiceRequest& request) {
  if (request.cancel == nullptr && request.deadline_ms > 0.0) {
    return std::make_shared<CancelToken>(
        CancelToken::AfterMillis(request.deadline_ms));
  }
  return request.cancel;
}

/// Injects the service's registry into the pool options (the pool then
/// publishes pool_* metrics alongside the service's own).
ThreadPoolOptions PoolOptionsWith(ThreadPoolOptions options,
                                  MetricsRegistry* registry) {
  options.registry = registry;
  return options;
}

}  // namespace

std::string ServiceStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "queries=%llu (planned=%llu forced=%llu) p50=%.3fms "
                "p95=%.3fms",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(planned),
                static_cast<unsigned long long>(forced), p50_latency_ms,
                p95_latency_ms);
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), " p99=%.3fms p999=%.3fms", p99_latency_ms,
                p999_latency_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\n  updates: epoch=%llu ingests=%llu rebuilds=%llu "
                "pending=%zu delta=%.1f%%",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(ingests),
                static_cast<unsigned long long>(rebuilds),
                update.pending_updates, 100.0 * update.delta_fraction);
  out += buf;
  if (shed > 0 || deadline_exceeded > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  robustness: shed=%llu deadline_exceeded=%llu",
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(deadline_exceeded));
    out += buf;
  }
  if (placement_refreshes > 0) {
    std::snprintf(buf, sizeof(buf), " placement_refreshes=%llu",
                  static_cast<unsigned long long>(placement_refreshes));
    out += buf;
  }
  out += "\n  per-algorithm:";
  for (std::size_t i = 0; i < per_algorithm.size(); ++i) {
    if (per_algorithm[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s=%llu",
                  AlgorithmName(static_cast<Algorithm>(i)),
                  static_cast<unsigned long long>(per_algorithm[i]));
    out += buf;
  }
  if (disk_io.blocks_read > 0 || disk_io.bytes > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  disk tier: blocks=%llu seeks=%llu bytes=%llu",
                  static_cast<unsigned long long>(disk_io.blocks_read),
                  static_cast<unsigned long long>(disk_io.seeks),
                  static_cast<unsigned long long>(disk_io.bytes));
    out += buf;
  }
  out += "\n  result cache: " + FormatCacheStats(result_cache);
  out += "\n  word-list cache: " + FormatCacheStats(word_list_cache);
  std::snprintf(buf, sizeof(buf),
                "\n  pool: submitted=%llu executed=%llu rejected=%llu "
                "peak_queue=%zu",
                static_cast<unsigned long long>(pool.submitted),
                static_cast<unsigned long long>(pool.executed),
                static_cast<unsigned long long>(pool.rejected),
                pool.peak_queue_depth);
  out += buf;
  return out;
}

PhraseService::PhraseService(MiningEngine* engine,
                             PhraseServiceOptions options)
    : PhraseService(
          nullptr,
          std::make_unique<ShardedEngine>(ShardedEngine::Adopt(engine)),
          std::move(options)) {}

PhraseService::PhraseService(ShardedEngine* sharded,
                             PhraseServiceOptions options)
    : PhraseService(sharded, nullptr, std::move(options)) {}

PhraseService::PhraseService(ShardedEngine* fleet,
                             std::unique_ptr<ShardedEngine> adopted,
                             PhraseServiceOptions options)
    : adopted_(std::move(adopted)),
      fleet_(adopted_ != nullptr ? adopted_.get() : fleet),
      options_(std::move(options)),
      result_cache_(options_.result_cache_shards, options_.result_cache_bytes,
                    &registry_, "result_cache"),
      pool_(PoolOptionsWith(options_.pool, &registry_)) {
  InitMetrics();
}

void PhraseService::InitMetrics() {
  queries_total_ = registry_.GetCounter("service_queries_total");
  planned_total_ = registry_.GetCounter("service_planned_total");
  forced_total_ = registry_.GetCounter("service_forced_total");
  ingests_total_ = registry_.GetCounter("service_ingests_total");
  rebuilds_total_ = registry_.GetCounter("service_rebuilds_total");
  slow_queries_total_ = registry_.GetCounter("service_slow_queries_total");
  placement_refreshes_total_ =
      registry_.GetCounter("service_placement_refreshes_total");
  shed_total_ = registry_.GetCounter("service_shed_total");
  deadline_exceeded_total_ =
      registry_.GetCounter("service_deadline_exceeded_total");
  admission_depth_ = registry_.GetGauge("service_admission_queue_depth");
  for (std::size_t i = 0; i < algorithm_total_.size(); ++i) {
    algorithm_total_[i] = registry_.GetCounter(
        std::string("service_executions_total{algorithm=\"") +
        AlgorithmName(static_cast<Algorithm>(i)) + "\"}");
  }
  disk_blocks_total_ = registry_.GetCounter("disk_blocks_total");
  disk_seeks_total_ = registry_.GetCounter("disk_seeks_total");
  disk_bytes_total_ = registry_.GetCounter("disk_bytes_total");
  exchange_pruned_total_ =
      registry_.GetCounter("exchange_candidates_pruned_total");
  fill_slots_total_ = registry_.GetCounter("exchange_fill_slots_total");
  latency_us_ = registry_.GetHistogram("service_latency_us");
  const std::size_t n = fleet_->num_shards();
  shard_disk_blocks_.reserve(n);
  shard_disk_seeks_.reserve(n);
  shard_disk_bytes_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    shard_disk_blocks_.push_back(
        registry_.GetCounter("shard_disk_blocks_total" + label));
    shard_disk_seeks_.push_back(
        registry_.GetCounter("shard_disk_seeks_total" + label));
    shard_disk_bytes_.push_back(
        registry_.GetCounter("shard_disk_bytes_total" + label));
  }
}

PhraseService::~PhraseService() { Shutdown(); }

void PhraseService::Shutdown() {
  shut_down_.store(true, std::memory_order_release);
  pool_.Shutdown();
}

std::future<ServiceReply> PhraseService::Submit(ServiceRequest request) {
  const StopWatch watch;
  Prepared prepared = Prepare(request, RequestToken(request));
  if (!prepared.status.ok()) {
    return ReadyFuture(Refusal(prepared, prepared.status, watch));
  }
  auto shed = [this](Status status) {
    shed_total_->Increment();
    ServiceReply reply;
    reply.status = std::move(status);
    return ReadyFuture(std::move(reply));
  };
  std::size_t depth = 0;
  if (Status full = AdmitDepth(&depth); !full.ok()) {
    return shed(std::move(full));
  }
  // A shut-down service stops answering, cache hits included.
  if (shut_down_.load(std::memory_order_acquire)) {
    return shed(Status::Unavailable("service is shut down"));
  }
  if (std::optional<ServiceReply> hit =
          Probe(prepared, watch, /*last_look=*/false)) {
    return ReadyFuture(std::move(*hit));
  }
  if (Status hopeless = AdmitCost(prepared, depth); !hopeless.ok()) {
    return shed(std::move(hopeless));
  }
  auto state = std::make_shared<std::promise<ServiceReply>>();
  std::future<ServiceReply> future = state->get_future();
  const bool accepted =
      pool_.Submit([this, state, prepared = std::move(prepared)] {
        const StopWatch started;
        try {
          // A duplicate queued behind its twin hits the entry the twin
          // filled after Submit looked.
          std::optional<ServiceReply> hit =
              Probe(prepared, started, /*last_look=*/true);
          state->set_value(hit.has_value() ? std::move(*hit)
                                           : Execute(prepared, started));
        } catch (...) {
          state->set_exception(std::current_exception());
        }
      });
  if (!accepted) {
    // The pool's contract: false means the task will NEVER run, so the
    // promise is ours to resolve -- with a typed error, not inline
    // execution (a shut-down service stops doing work). shutting_down()
    // is racy by design; the worst case is a rejection storm during
    // shutdown reporting Unavailable, which is still a typed refusal.
    shed_total_->Increment();
    ServiceReply reply;
    reply.status = pool_.shutting_down()
                       ? Status::Unavailable("service is shut down")
                       : Status::ResourceExhausted(
                             "thread pool rejected the submission");
    state->set_value(std::move(reply));
  }
  return future;
}

std::vector<std::future<ServiceReply>> PhraseService::SubmitBatch(
    std::vector<ServiceRequest> requests) {
  std::vector<std::future<ServiceReply>> futures;
  futures.reserve(requests.size());
  for (ServiceRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

ServiceReply PhraseService::MineSync(const ServiceRequest& request) {
  // Submit's path minus admission control (the caller runs on their own
  // thread; there is no queue to shed from).
  const StopWatch watch;
  const Prepared prepared = Prepare(request, RequestToken(request));
  if (!prepared.status.ok()) {
    return Refusal(prepared, prepared.status, watch);
  }
  if (std::optional<ServiceReply> hit =
          Probe(prepared, watch, /*last_look=*/true)) {
    return std::move(*hit);
  }
  return Execute(prepared, watch);
}

PhraseService::Prepared PhraseService::Prepare(
    const ServiceRequest& request, std::shared_ptr<CancelToken> token) const {
  Prepared prepared;
  // The request's span tree hangs off the reply, never the cached result;
  // every layer below holds a TraceSpan* that is null when tracing is off
  // (the null-safe helpers then do nothing -- no allocations).
  if (request.options.trace) {
    prepared.trace = std::make_shared<TraceSpan>();
    prepared.trace->name = "query";
  }
  prepared.canonical = CanonicalizeQuery(request.query);
  prepared.status = ValidateRequest(prepared.canonical, request.options);
  if (!prepared.status.ok()) return prepared;
  prepared.plan_span = AddSpan(prepared.trace.get(), "plan");
  prepared.algorithm = request.algorithm;
  // The fleet applies its engines' own overlays and refuses an external
  // one: drop a caller-supplied overlay and say so rather than aborting.
  prepared.options = request.options;
  prepared.caller_delta = prepared.options.delta != nullptr;
  prepared.options.delta = nullptr;
  // One shared token cancels every shard leg: the first leg observing the
  // deadline latches it, the siblings see the flag. The cache key
  // serializer ignores the pointer, so deadline and no-deadline spellings
  // of a query share cache entries.
  prepared.token = std::move(token);
  prepared.options.cancel = prepared.token.get();
  if (options_.enable_result_cache && !prepared.caller_delta) {
    // The composite epoch vector keys the entry: an ingest to any shard
    // strands that shard's stale entries by unreachability. A mine racing
    // onto a newer epoch only moves the cached reply forward in
    // freshness. kSmj output depends on the construction fraction of the
    // id-ordered lists, which the fleet reports; a planned request may
    // run kSmj, so the fraction always keys.
    prepared.key =
        ResultCacheKey(prepared.canonical, prepared.algorithm,
                       prepared.options, fleet_->smj_fraction(),
                       fleet_->epochs());
  }
  return prepared;
}

ServiceReply PhraseService::Refusal(const Prepared& prepared, Status status,
                                    const StopWatch& watch) {
  ServiceReply reply;
  reply.status = std::move(status);
  reply.trace = prepared.trace;
  reply.latency_ms = watch.ElapsedMillis();
  if (reply.trace != nullptr) reply.trace->wall_ms = reply.latency_ms;
  return reply;
}

std::optional<ServiceReply> PhraseService::Probe(const Prepared& prepared,
                                                 const StopWatch& watch,
                                                 bool last_look) {
  if (prepared.key.empty() || CancelExpired(prepared.options.cancel)) {
    return std::nullopt;
  }
  TraceSpan* troot = prepared.trace.get();
  std::optional<std::shared_ptr<const CachedResult>> hit;
  if (troot == nullptr) {
    hit = result_cache_.Get(prepared.key, /*count_miss=*/last_look);
  } else {
    const StopWatch lookup;
    hit = result_cache_.Get(prepared.key, /*count_miss=*/last_look);
    // One cache_lookup child per request: the look that decides it.
    if (hit.has_value() || last_look) {
      TraceSpan* cache_span = AddSpan(troot, "cache_lookup");
      cache_span->wall_ms = lookup.ElapsedMillis();
      AddCounter(cache_span, "hit", hit.has_value() ? 1.0 : 0.0);
    }
  }
  if (!hit) return std::nullopt;
  const CachedResult& cached = **hit;
  ServiceReply reply;
  reply.result = cached.result;
  reply.phrase_texts = cached.texts;
  reply.plan = cached.plan;
  reply.epoch = reply.result.epoch;
  reply.result_cache_hit = true;
  reply.trace = prepared.trace;
  // No planning runs: the plan span carries the decision that mined the
  // cached result.
  SetDetail(prepared.plan_span, reply.plan.ToString());
  CountTermQueries(prepared.canonical, /*post_refresh=*/true);
  reply.latency_ms = watch.ElapsedMillis();
  if (troot != nullptr) troot->wall_ms = reply.latency_ms;
  RecordQuery(reply.plan.algorithm, prepared.algorithm.has_value(),
              /*executed=*/false, reply.latency_ms);
  MaybeLogSlowQuery(prepared.canonical, reply.plan.algorithm, reply);
  return reply;
}

Status PhraseService::AdmitDepth(std::size_t* depth) {
  const AdmissionOptions& adm = options_.admission;
  if (adm.max_queue_depth == 0) return Status::OK();
  *depth = pool_.queue_depth();
  // Sampled at every gate decision; the gauge's Max() is the high-water
  // depth the shed decisions actually saw.
  admission_depth_->Set(static_cast<int64_t>(*depth));
  if (*depth >= adm.max_queue_depth) {
    return Status::ResourceExhausted(
        "admission queue full (depth " + std::to_string(*depth) +
        " >= bound " + std::to_string(adm.max_queue_depth) + ")");
  }
  return Status::OK();
}

Status PhraseService::AdmitCost(const Prepared& prepared, std::size_t depth) {
  const AdmissionOptions& adm = options_.admission;
  const CancelToken* token = prepared.token.get();
  if (adm.max_queue_depth == 0 || !adm.cost_gate || token == nullptr ||
      !token->has_deadline()) {
    return Status::OK();
  }
  const double remaining = token->remaining_ms();
  if (remaining <= 0.0) {
    return Status::ResourceExhausted("deadline already expired at admission");
  }
  const double ewma_ms =
      static_cast<double>(ewma_latency_us_.load(std::memory_order_relaxed)) /
      1000.0;
  if (ewma_ms <= 0.0) return Status::OK();  // no latency signal yet: admit
  double exec_ms = ewma_ms;
  if (adm.cost_to_ms > 0.0 && !prepared.algorithm.has_value()) {
    // One extra (cheap, list-build-free) planning pass converts the cost
    // model's entry estimate into milliseconds; the measured EWMA stays
    // the floor so a mistuned cost_to_ms can only shed earlier, not admit
    // queries the observed latency already rules out.
    const PlanDecision decision = CostPlanner::PlanAcrossShards(
        fleet_->GatherPlannerInputs(prepared.canonical, prepared.options),
        options_.planner);
    for (const auto& [algorithm, cost] : decision.estimated_costs) {
      if (algorithm == decision.algorithm) {
        exec_ms = std::max(exec_ms, cost * adm.cost_to_ms);
        break;
      }
    }
  }
  const double wait_ms = static_cast<double>(depth) * ewma_ms /
                         static_cast<double>(pool_.num_threads());
  if (wait_ms + exec_ms > remaining) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "hopeless under deadline: projected %.1fms wait + %.1fms "
                  "execute > %.1fms remaining",
                  wait_ms, exec_ms, remaining);
    return Status::ResourceExhausted(buf);
  }
  return Status::OK();
}

Status PhraseService::ValidateRequest(const Query& canonical,
                                      const MineOptions& options) {
  if (canonical.terms.empty()) {
    return Status::InvalidArgument("query has no terms");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  return Status::OK();
}

ServiceReply PhraseService::Execute(const Prepared& prepared,
                                    const StopWatch& watch) {
  if (CancelExpired(prepared.options.cancel)) {
    deadline_exceeded_total_->Increment();
    return Refusal(prepared,
                   Status::DeadlineExceeded(
                       "deadline expired before execution"),
                   watch);
  }
  CountTermQueries(prepared.canonical, /*post_refresh=*/false);

  ServiceReply reply;
  reply.trace = prepared.trace;
  TraceSpan* troot = reply.trace.get();
  {
    SpanTimer plan_timer(prepared.plan_span);
    if (prepared.algorithm.has_value()) {
      reply.plan.algorithm = *prepared.algorithm;
      reply.plan.op = prepared.canonical.op;
      reply.plan.k = prepared.options.k;
      reply.plan.reason = "forced by caller";
    } else {
      // Per-shard inputs are gathered by the fleet under its fleet lock --
      // the service must never cache per-shard planners, which would
      // dangle across a dictionary refresh.
      reply.plan = CostPlanner::PlanAcrossShards(
          fleet_->GatherPlannerInputs(prepared.canonical, prepared.options),
          options_.planner);
    }
    if (prepared.caller_delta) {
      reply.plan.reason +=
          " (caller delta ignored: the engines apply their own overlays)";
    }
    plan_timer.Stop();
    SetDetail(prepared.plan_span, reply.plan.ToString());
  }
  const Algorithm algorithm = reply.plan.algorithm;

  ShardedMineResult mined =
      fleet_->Mine(prepared.canonical, algorithm, prepared.options);
  reply.result = std::move(mined.result);
  reply.phrase_texts = std::move(mined.texts);
  // A non-OK mine (deadline fired mid-merge, disk tier latched an error)
  // surfaces on the reply; the partial result is accounting, not a
  // ranking, and must never be cached.
  reply.status = reply.result.status;
  if (reply.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_total_->Increment();
  }
  reply.epoch = reply.result.epoch;
  // Fleet-level registry counters: threshold-exchange effectiveness plus
  // the per-shard disk-tier split (the aggregate disk counters are
  // accumulated by RecordQuery below).
  exchange_pruned_total_->Add(reply.result.candidates_pruned);
  fill_slots_total_->Add(mined.fill_slots);
  for (std::size_t s = 0;
       s < mined.shard_disk_io.size() && s < shard_disk_blocks_.size(); ++s) {
    const DiskIoStats& io = mined.shard_disk_io[s];
    if (io.blocks_read == 0 && io.bytes == 0) continue;
    shard_disk_blocks_[s]->Add(io.blocks_read);
    shard_disk_seeks_[s]->Add(io.seeks);
    shard_disk_bytes_[s]->Add(io.bytes);
  }
  // Re-root the mine's trace under the request span and strip it from the
  // result before the cache sees it (a cached trace would replay a stale
  // execution story on every hit).
  if (troot != nullptr && reply.result.trace != nullptr) {
    troot->children.push_back(std::move(reply.result.trace));
  }
  reply.result.trace.reset();
  if (!prepared.key.empty() && reply.status.ok()) {
    auto shared = std::make_shared<const CachedResult>(
        CachedResult{reply.result, reply.phrase_texts, reply.plan});
    result_cache_.Put(prepared.key, shared,
                      ResultCharge(prepared.key, *shared));
  }
  reply.latency_ms = watch.ElapsedMillis();
  if (troot != nullptr) troot->wall_ms = reply.latency_ms;
  RecordQuery(algorithm, prepared.algorithm.has_value(), /*executed=*/true,
              reply.latency_ms, reply.result.disk_io);
  MaybeLogSlowQuery(prepared.canonical, algorithm, reply);
  return reply;
}

UpdateStats PhraseService::Ingest(UpdateDoc doc) {
  UpdateBatch batch;
  batch.inserts.push_back(std::move(doc));
  return IngestBatch(batch);
}

UpdateStats PhraseService::IngestBatch(const UpdateBatch& batch) {
  ShardedUpdateStats stats = fleet_->ApplyUpdate(batch);
  ingests_total_->Increment();
  if (stats.total.rebuild_recommended && options_.enable_auto_rebuild) {
    MaybeScheduleRebuild(std::move(stats.rebuild_recommended));
  }
  return stats.total;
}

Result<uint64_t> PhraseService::Subscribe(const SubscriptionRequest& request) {
  std::scoped_lock lock(subscriptions_mu_);
  if (subscriptions_ == nullptr) {
    SubscriptionManagerOptions opts = options_.subscriptions;
    opts.metrics = &registry_;  // subscribe_* metrics live with service_*
    subscriptions_ = std::make_unique<SubscriptionManager>(fleet_, opts);
    subscriptions_ptr_.store(subscriptions_.get(), std::memory_order_release);
  }
  return subscriptions_->Subscribe(request);
}

Status PhraseService::Unsubscribe(uint64_t subscription) {
  SubscriptionManager* manager = subscriptions();
  if (manager == nullptr) {
    return Status::NotFound("unknown subscription " +
                            std::to_string(subscription));
  }
  return manager->Unsubscribe(subscription);
}

Result<std::vector<SubscriptionUpdate>> PhraseService::PollSubscription(
    uint64_t subscription, std::size_t max_updates, double wait_ms) {
  SubscriptionManager* manager = subscriptions();
  if (manager == nullptr) {
    return Status::NotFound("unknown subscription " +
                            std::to_string(subscription));
  }
  return manager->Poll(subscription, max_updates, wait_ms);
}

Result<SubscriptionState> PhraseService::SubscriptionSnapshot(
    uint64_t subscription) const {
  SubscriptionManager* manager = subscriptions();
  if (manager == nullptr) {
    return Status::NotFound("unknown subscription " +
                            std::to_string(subscription));
  }
  return manager->Snapshot(subscription);
}

void PhraseService::MaybeScheduleRebuild(std::vector<uint8_t> shard_flags) {
  if (rebuild_inflight_.exchange(true)) return;
  auto rebuild = [this, flags = std::move(shard_flags)] {
    // Only the shards that crossed their threshold rebuild; each one
    // counts as one completed rebuild (that is the blast-radius story:
    // queries lose at most one shard's freshness at a time).
    for (std::size_t s = 0; s < flags.size(); ++s) {
      if (!flags[s]) continue;
      fleet_->RebuildShard(s);
      rebuilds_total_->Increment();
    }
    rebuild_inflight_.store(false);
  };
  // Pool shut down: rebuild inline so the recommendation is not lost.
  if (!pool_.Submit(rebuild)) rebuild();
}

void PhraseService::CountTermQueries(const Query& canonical,
                                     bool post_refresh) {
  // Every term keeps one stable registry counter (GetCounter is
  // find-or-create, under the labels-in-name convention). Counting is a
  // shared-lock lookup plus relaxed atomic adds; only a term's first
  // query takes the lock exclusively, to create its counter.
  std::vector<TermId> unseen;
  {
    std::shared_lock lock(term_counts_mu_);
    for (TermId t : canonical.terms) {
      const auto it = term_counters_.find(t);
      if (it == term_counters_.end()) {
        unseen.push_back(t);
      } else {
        it->second->Increment();
      }
    }
  }
  if (!unseen.empty()) {
    std::scoped_lock lock(term_counts_mu_);
    for (TermId t : unseen) {
      Counter*& counter = term_counters_[t];
      if (counter == nullptr) {
        counter = registry_.GetCounter("service_term_queries_total{term=\"" +
                                       std::to_string(t) + "\"}");
      }
      counter->Increment();
    }
  }
  const std::size_t interval = options_.placement_refresh_interval;
  if (interval == 0) return;
  if (queries_since_refresh_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      interval) {
    // Benign race: two threads crossing the boundary together both reset
    // and both refresh -- the second install sees an empty window and
    // keeps the placement, so the cadence never double-moves the tier.
    queries_since_refresh_.store(0, std::memory_order_relaxed);
    // A pool that cannot take the task (queue full, shut down) gets it
    // run here, so the refresh is not lost.
    if (!post_refresh || !pool_.TrySubmit([this] { RefreshPlacement(); })) {
      RefreshPlacement();
    }
  }
}

bool PhraseService::RefreshPlacement() {
  auto observed = std::make_shared<TermPopularity>();
  {
    std::scoped_lock lock(term_counts_mu_);
    for (const auto& [term, counter] : term_counters_) {
      // Window counts: only demand since the previous refresh moves the
      // placement, so the tier tracks hot-set drift instead of being
      // anchored by stale cumulative history.
      const uint64_t total = counter->Value();
      const uint64_t installed = installed_counts_[term];
      if (total > installed) (*observed)[term] = total - installed;
    }
    if (observed->empty()) return false;  // no new traffic: keep placement
    for (const auto& [term, delta] : *observed) {
      installed_counts_[term] += delta;
    }
  }
  fleet_->SetTermPopularity(std::move(observed));
  placement_refreshes_total_->Increment();
  return true;
}

void PhraseService::RecordQuery(Algorithm algorithm, bool forced,
                                bool executed, double latency_ms,
                                const DiskIoStats& disk_io) {
  // Registry handles only: each update is a relaxed striped-atomic add,
  // so concurrent queries never serialize on a stats mutex here.
  queries_total_->Increment();
  (forced ? forced_total_ : planned_total_)->Increment();
  if (executed) {
    // EWMA of executed latency (alpha 1/8) for the admission cost gate;
    // the load/store race can drop an update, never corrupt the value.
    const uint64_t sample = LatencyMicros(latency_ms);
    const uint64_t old = ewma_latency_us_.load(std::memory_order_relaxed);
    ewma_latency_us_.store(old == 0 ? sample : (old * 7 + sample) / 8,
                           std::memory_order_relaxed);
    const auto index = static_cast<std::size_t>(algorithm);
    if (index < algorithm_total_.size()) algorithm_total_[index]->Increment();
    if (disk_io.blocks_read > 0 || disk_io.bytes > 0) {
      disk_blocks_total_->Add(disk_io.blocks_read);
      disk_seeks_total_->Add(disk_io.seeks);
      disk_bytes_total_->Add(disk_io.bytes);
    }
  }
  latency_us_->Record(LatencyMicros(latency_ms));
}

void PhraseService::MaybeLogSlowQuery(const Query& canonical,
                                      Algorithm algorithm,
                                      const ServiceReply& reply) {
  if (options_.slow_query_ms <= 0.0 ||
      reply.latency_ms < options_.slow_query_ms) {
    return;
  }
  slow_queries_total_->Increment();
  SlowQueryEntry entry;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %s k=%zu terms=[",
                AlgorithmName(algorithm),
                canonical.op == QueryOperator::kAnd ? "AND" : "OR",
                reply.plan.k);
  entry.description = buf;
  for (std::size_t i = 0; i < canonical.terms.size(); ++i) {
    if (i > 0) entry.description += ',';
    entry.description += std::to_string(canonical.terms[i]);
  }
  entry.description += ']';
  if (reply.result_cache_hit) entry.description += " (cache hit)";
  entry.latency_ms = reply.latency_ms;
  if (reply.trace != nullptr) entry.explain = reply.trace->Explain();
  std::scoped_lock lock(slow_mu_);
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > options_.slow_query_log_capacity) {
    slow_log_.pop_front();
  }
}

std::vector<PhraseService::SlowQueryEntry> PhraseService::slow_queries()
    const {
  std::scoped_lock lock(slow_mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

ServiceStats PhraseService::stats() const {
  ServiceStats stats;
  // One registry snapshot is the single source for every counter the
  // service publishes; the struct is just a typed view over it.
  const MetricsSnapshot snap = registry_.Snapshot();
  stats.queries = snap.counter("service_queries_total");
  stats.planned = snap.counter("service_planned_total");
  stats.forced = snap.counter("service_forced_total");
  stats.ingests = snap.counter("service_ingests_total");
  stats.rebuilds = snap.counter("service_rebuilds_total");
  stats.placement_refreshes =
      snap.counter("service_placement_refreshes_total");
  stats.shed = snap.counter("service_shed_total");
  stats.deadline_exceeded = snap.counter("service_deadline_exceeded_total");
  for (std::size_t i = 0; i < stats.per_algorithm.size(); ++i) {
    stats.per_algorithm[i] = snap.counter(
        std::string("service_executions_total{algorithm=\"") +
        AlgorithmName(static_cast<Algorithm>(i)) + "\"}");
  }
  stats.disk_io.blocks_read = snap.counter("disk_blocks_total");
  stats.disk_io.seeks = snap.counter("disk_seeks_total");
  stats.disk_io.bytes = snap.counter("disk_bytes_total");
  if (const HistogramSnapshot* latency = snap.histogram("service_latency_us");
      latency != nullptr) {
    stats.p50_latency_ms = latency->Quantile(0.50) / 1000.0;
    stats.p95_latency_ms = latency->Quantile(0.95) / 1000.0;
    stats.p99_latency_ms = latency->Quantile(0.99) / 1000.0;
    stats.p999_latency_ms = latency->Quantile(0.999) / 1000.0;
  }
  stats.epoch = fleet_->epoch();
  stats.update = fleet_->update_stats();
  stats.result_cache = result_cache_.stats();
  const WordListStats lists = fleet_->word_list_stats();
  stats.word_list_cache.hits = lists.hits;
  stats.word_list_cache.misses = lists.misses;
  stats.word_list_cache.inserts = lists.misses;
  stats.word_list_cache.entries = lists.entries;
  stats.word_list_cache.bytes = lists.bytes;
  stats.pool = pool_.stats();
  return stats;
}

}  // namespace phrasemine
