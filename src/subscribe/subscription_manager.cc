#include "subscribe/subscription_manager.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/cancel.h"
#include "core/delta_index.h"
#include "core/kernels.h"
#include "testing/failpoint.h"

namespace phrasemine {

namespace {

/// Component-wise a <= b; false when the shapes differ (shard count
/// changed -- treat as incomparable).
bool VecLeq(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

uint64_t VecSum(const std::vector<uint64_t>& v) {
  uint64_t sum = 0;
  for (uint64_t x : v) sum += x;
  return sum;
}

}  // namespace

const char* TopKChangeKindName(TopKChangeKind kind) {
  switch (kind) {
    case TopKChangeKind::kEntered:
      return "entered";
    case TopKChangeKind::kLeft:
      return "left";
    case TopKChangeKind::kReordered:
      return "reordered";
    case TopKChangeKind::kRescored:
      return "rescored";
  }
  return "unknown";
}

/// All mutable mining state is worker-only after the bootstrap command is
/// enqueued; the published state and the notification queue are guarded
/// by the manager's subs_mu_.
struct SubscriptionManager::Sub {
  uint64_t id = 0;
  SubscriptionRequest request;  // terms canonicalized
  Query query;
  std::size_t k_shadow = 0;
  std::atomic<bool> cancelled{false};

  // --- Worker-only mining state ---
  bool bootstrapped = false;
  /// Set when incremental maintenance is impossible (rebuild, lost
  /// events, inconclusive exact bound, cancelled re-mine): the next
  /// processed event re-mines from scratch.
  bool dirty = false;
  /// Rank-ordered qualifying phrases with exact scores; every phrase
  /// outside ranks worse than the bound below (or does not qualify).
  std::vector<MinedPhrase> shadow;
  /// True when `shadow` provably holds EVERY qualifying phrase (the last
  /// full mine returned fewer than k_shadow results).
  bool bound_none = true;
  double bound_score = 0.0;
  PhraseId bound_phrase = 0;
  /// Per-shard epochs at which `shadow` is exact (one entry per shard).
  std::vector<uint64_t> state_vec;

  // --- Published state + notifications (guarded by subs_mu_) ---
  std::vector<MinedPhrase> published;
  uint64_t published_epoch = 0;
  bool published_exact = true;
  bool ever_published = false;
  std::deque<SubscriptionUpdate> updates;
};

namespace {

/// Diff of two publishes in the new publish's rank order, kLeft entries
/// last -- the notification payload subscribers act on.
std::vector<TopKChange> DiffTopK(const std::vector<MinedPhrase>& old_topk,
                                 const std::vector<MinedPhrase>& new_topk) {
  std::vector<TopKChange> changes;
  std::unordered_map<PhraseId, int> old_rank;
  old_rank.reserve(old_topk.size());
  for (std::size_t i = 0; i < old_topk.size(); ++i) {
    old_rank.emplace(old_topk[i].phrase, static_cast<int>(i));
  }
  std::unordered_map<PhraseId, int> new_rank;
  new_rank.reserve(new_topk.size());
  for (std::size_t i = 0; i < new_topk.size(); ++i) {
    new_rank.emplace(new_topk[i].phrase, static_cast<int>(i));
  }
  for (std::size_t i = 0; i < new_topk.size(); ++i) {
    const MinedPhrase& np = new_topk[i];
    auto it = old_rank.find(np.phrase);
    if (it == old_rank.end()) {
      changes.push_back(TopKChange{TopKChangeKind::kEntered, np.phrase, -1,
                                   static_cast<int>(i), 0.0, np.score});
      continue;
    }
    const MinedPhrase& op = old_topk[static_cast<std::size_t>(it->second)];
    if (it->second != static_cast<int>(i)) {
      changes.push_back(TopKChange{TopKChangeKind::kReordered, np.phrase,
                                   it->second, static_cast<int>(i), op.score,
                                   np.score});
    } else if (op.score != np.score) {
      changes.push_back(TopKChange{TopKChangeKind::kRescored, np.phrase,
                                   it->second, static_cast<int>(i), op.score,
                                   np.score});
    }
  }
  for (std::size_t i = 0; i < old_topk.size(); ++i) {
    if (new_rank.find(old_topk[i].phrase) == new_rank.end()) {
      changes.push_back(TopKChange{TopKChangeKind::kLeft, old_topk[i].phrase,
                                   static_cast<int>(i), -1, old_topk[i].score,
                                   0.0});
    }
  }
  return changes;
}

}  // namespace

SubscriptionManager::SubscriptionManager(MiningEngine* engine, Options options)
    : SubscriptionManager(
          nullptr,
          std::make_unique<ShardedEngine>(ShardedEngine::Adopt(engine)),
          options) {}

SubscriptionManager::SubscriptionManager(ShardedEngine* engine, Options options)
    : SubscriptionManager(engine, nullptr, options) {}

SubscriptionManager::SubscriptionManager(
    ShardedEngine* fleet, std::unique_ptr<ShardedEngine> adopted,
    Options options)
    : options_(options),
      adopted_(std::move(adopted)),
      fleet_(adopted_ != nullptr ? adopted_.get() : fleet) {
  options_.queue_capacity = std::max<std::size_t>(options_.queue_capacity, 1);
  options_.event_capacity = std::max<std::size_t>(options_.event_capacity, 1);
  options_.shadow_pad = std::max<std::size_t>(options_.shadow_pad, 1);
  MetricsRegistry& reg =
      options_.metrics != nullptr ? *options_.metrics : MetricsRegistry::Default();
  subscriptions_gauge_ = reg.GetGauge("subscribe_subscriptions");
  batches_total_ = reg.GetCounter("subscribe_batches_total");
  incremental_total_ = reg.GetCounter("subscribe_incremental_total");
  remine_total_ = reg.GetCounter("subscribe_remine_total");
  notifications_total_ = reg.GetCounter("subscribe_notifications_total");
  dropped_total_ = reg.GetCounter("subscribe_dropped_total");
  events_dropped_total_ = reg.GetCounter("subscribe_events_dropped_total");
  fanout_deadline_total_ = reg.GetCounter("subscribe_fanout_deadline_total");
  touched_total_ = reg.GetCounter("subscribe_touched_phrases_total");

  // Every batch from here on reaches the worker as an event, and every
  // shadow state is mined after this point, so the current epoch vector
  // stands in for a last processed event: a subscription whose bootstrap
  // lands before the first event steps from it incrementally instead of
  // re-mining.
  prev_event_vec_ = fleet_->epochs();
  prev_event_valid_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
  fleet_->SetUpdateListener([this](const ShardedUpdateEvent& ev) {
    Msg msg;
    msg.kind = Msg::Kind::kEvent;
    msg.event = ev;
    EnqueueEvent(std::move(msg));
  });
}

SubscriptionManager::~SubscriptionManager() {
  // Detach first: after SetUpdateListener(nullptr) returns no further
  // callback can run, so the queue below is final.
  fleet_->SetUpdateListener(nullptr);
  {
    std::scoped_lock lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  drain_cv_.notify_all();
  worker_.join();
  subs_cv_.notify_all();
}

void SubscriptionManager::EnqueueEvent(Msg msg) {
  // Runs on the ingest thread, under the engine's update mutex: enqueue
  // and return, nothing else. Data events are dropped on overflow (the
  // lost flag re-mines every subscription later); control commands are
  // always admitted.
  {
    std::scoped_lock lock(queue_mu_);
    if (shutdown_) return;
    if (msg.kind != Msg::Kind::kBootstrap &&
        queue_.size() >= options_.event_capacity) {
      events_lost_ = true;
      events_dropped_total_->Increment();
      return;
    }
    queue_.push_back(std::move(msg));
  }
  queue_cv_.notify_one();
}

void SubscriptionManager::WorkerLoop() {
  for (;;) {
    Msg msg;
    bool lost = false;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_) return;
      msg = std::move(queue_.front());
      queue_.pop_front();
      processing_ = true;
      lost = events_lost_;
      events_lost_ = false;
    }
    Handle(msg, lost);
    {
      std::scoped_lock lock(queue_mu_);
      processing_ = false;
      // Re-latch the lost flag if this was a control message: the next
      // data event still has to re-mine everyone.
      if (lost && msg.kind == Msg::Kind::kBootstrap) events_lost_ = true;
      if (queue_.empty()) drain_cv_.notify_all();
    }
  }
}

void SubscriptionManager::Handle(Msg& msg, bool events_lost) {
  if (msg.kind == Msg::Kind::kBootstrap) {
    std::shared_ptr<Sub> sub;
    {
      std::scoped_lock lock(subs_mu_);
      auto it = subs_.find(msg.subscription);
      if (it != subs_.end()) sub = it->second;
    }
    if (sub != nullptr && !sub->cancelled.load(std::memory_order_relaxed)) {
      Remine(*sub, nullptr, /*bootstrap=*/true, nullptr);
    }
    return;
  }
  ProcessDataEvent(msg, events_lost);
}

void SubscriptionManager::ProcessDataEvent(Msg& msg, bool events_lost) {
  batches_total_->Increment();
  const bool rebuilt = msg.event.rebuilt;
  const std::vector<PhraseId>& touched = msg.event.touched;
  touched_total_->Add(touched.size());

  std::vector<uint64_t> event_vec;
  event_vec.reserve(msg.event.shards.size());
  for (const ShardUpdateEvent& s : msg.event.shards) {
    event_vec.push_back(s.epoch);
  }

  std::shared_ptr<TraceSpan> trace;
  if (options_.trace) {
    trace = std::make_shared<TraceSpan>();
    trace->name = "subscribe.batch";
    AddCounter(trace.get(), "touched", static_cast<double>(touched.size()));
    AddCounter(trace.get(), "epoch", static_cast<double>(VecSum(event_vec)));
  }
  SpanTimer batch_timer(trace.get());

  std::vector<std::shared_ptr<Sub>> subs;
  {
    std::scoped_lock lock(subs_mu_);
    subs.reserve(subs_.size());
    for (const auto& [id, sub] : subs_) subs.push_back(sub);
  }

  const bool has_deadline = options_.fanout_deadline_ms > 0.0;
  CancelToken deadline = has_deadline
                             ? CancelToken::AfterMillis(options_.fanout_deadline_ms)
                             : CancelToken();
  const CancelToken* token = has_deadline ? &deadline : nullptr;

  std::size_t incremental_subs = 0;
  for (const std::shared_ptr<Sub>& sp : subs) {
    Sub& sub = *sp;
    if (sub.cancelled.load(std::memory_order_relaxed)) continue;
    // A subscription whose bootstrap command is still queued has no state
    // to maintain; its bootstrap mine will cover this batch.
    if (!sub.bootstrapped) continue;
    if (rebuilt || events_lost) sub.dirty = true;
    if (token != nullptr && token->Expired()) {
      sub.dirty = true;
      fanout_deadline_total_->Increment();
      continue;
    }
    if (!sub.dirty) {
      if (VecLeq(event_vec, sub.state_vec)) continue;  // already covered
      const bool contiguous =
          prev_event_valid_ && VecLeq(prev_event_vec_, sub.state_vec) &&
          VecLeq(sub.state_vec, event_vec);
      if (contiguous) {
        if (IncrementalStep(sub, msg, event_vec)) {
          ++incremental_subs;
        } else {
          sub.dirty = true;  // inconclusive under an exact guarantee
        }
      } else {
        // The shadow state interleaves the event stream (a re-mine raced
        // concurrent ingest): the gap to this event is not a single
        // batch, so the touched set does not bound what changed.
        sub.dirty = true;
      }
    }
    if (sub.dirty) {
      TraceSpan* remine_span = nullptr;
      if (trace != nullptr) {
        remine_span = AddSpan(trace.get(), "remine");
        SetDetail(remine_span, "subscription " + std::to_string(sub.id));
      }
      Remine(sub, token, /*bootstrap=*/false, remine_span);
    }
  }

  if (rebuilt || events_lost) {
    prev_event_valid_ = false;
  } else {
    prev_event_vec_ = event_vec;
    prev_event_valid_ = true;
  }

  if (trace != nullptr) {
    AddCounter(trace.get(), "incremental_subscriptions",
               static_cast<double>(incremental_subs));
    batch_timer.Stop();
    std::scoped_lock lock(subs_mu_);
    last_batch_trace_ = std::move(trace);
  }
}

bool SubscriptionManager::IncrementalStep(
    Sub& sub, const Msg& msg, const std::vector<uint64_t>& event_vec) {
  const std::vector<PhraseId>& touched = msg.event.touched;
  bool ok = true;
  const std::vector<Rescored> rescored = RescoreTouched(sub, msg, touched, &ok);
  if (!ok) return false;  // structures moved past the event: re-mine

  // Merge the rescored phrases into the shadow set. Positions of existing
  // entries first, so each touched phrase updates in place or is removed.
  std::unordered_map<PhraseId, std::size_t> pos;
  pos.reserve(sub.shadow.size());
  for (std::size_t i = 0; i < sub.shadow.size(); ++i) {
    pos.emplace(sub.shadow[i].phrase, i);
  }
  std::vector<bool> remove(sub.shadow.size(), false);
  std::vector<MinedPhrase> inserts;
  for (std::size_t t = 0; t < touched.size(); ++t) {
    const PhraseId p = touched[t];
    const Rescored& r = rescored[t];
    auto it = pos.find(p);
    if (it != pos.end()) {
      if (r.qualifies) {
        sub.shadow[it->second].score = r.score;
        sub.shadow[it->second].interestingness = r.interestingness;
      } else {
        remove[it->second] = true;
      }
      continue;
    }
    if (!r.qualifies) continue;
    // Outside phrases ranking worse than the bound stay outside -- the
    // invariant already covers them.
    if (!sub.bound_none &&
        !RanksBetter(r.score, p, sub.bound_score, sub.bound_phrase)) {
      continue;
    }
    inserts.push_back(MinedPhrase{p, r.score, r.interestingness});
  }

  std::vector<MinedPhrase> next;
  next.reserve(sub.shadow.size() + inserts.size());
  for (std::size_t i = 0; i < sub.shadow.size(); ++i) {
    if (!remove[i]) next.push_back(sub.shadow[i]);
  }
  next.insert(next.end(), inserts.begin(), inserts.end());
  std::sort(next.begin(), next.end(),
            [](const MinedPhrase& a, const MinedPhrase& b) {
              return RanksBetter(a.score, a.phrase, b.score, b.phrase);
            });

  // Prune back to the cap: entries ranking worse than the bound go first
  // (free -- the invariant already lets them live outside); if the set is
  // still oversized the bound tightens to the last kept entry.
  if (next.size() > sub.k_shadow) {
    if (!sub.bound_none) {
      while (!next.empty() &&
             RanksBetter(sub.bound_score, sub.bound_phrase, next.back().score,
                         next.back().phrase)) {
        next.pop_back();
      }
    }
    if (next.size() > sub.k_shadow) {
      next.resize(sub.k_shadow);
      sub.bound_none = false;
      sub.bound_score = next.back().score;
      sub.bound_phrase = next.back().phrase;
    }
  }
  sub.shadow = std::move(next);

  // Publish is provably the fresh top-k iff no outside phrase can rank at
  // or above the k-th shadow entry: either the shadow holds every
  // qualifying phrase, or its k-th entry still ranks at or above the
  // bound (everything outside ranks strictly worse than the bound).
  const std::size_t k = sub.request.k;
  const bool conclusive =
      sub.bound_none ||
      (sub.shadow.size() >= k &&
       !RanksBetter(sub.bound_score, sub.bound_phrase, sub.shadow[k - 1].score,
                    sub.shadow[k - 1].phrase));
  if (!conclusive && sub.request.exact) return false;

  sub.state_vec = event_vec;
  incremental_total_->Increment();
  Publish(sub, conclusive, /*initial=*/false);
  return true;
}

std::vector<SubscriptionManager::Rescored> SubscriptionManager::RescoreTouched(
    const Sub& sub, const Msg& msg, const std::vector<PhraseId>& touched,
    bool* ok) {
  const std::vector<TermId>& terms = sub.query.terms;
  const std::size_t nt = terms.size();
  const std::size_t np = touched.size();
  std::vector<Rescored> out(np);
  std::vector<double> probs(nt, 0.0);
  const QueryOperator op = sub.request.op;

  // Global score = f(summed per-shard integer supports), the gather's
  // exact arithmetic (AdjustedShardDf/AdjustedShardCodf are the very
  // helpers its fill rounds use); on one shard the recovered counts
  // reproduce DeltaIndex::AdjustedProb bitwise. One locked pass per shard
  // covers every touched phrase: the touched ids are sorted, so each
  // term's base probabilities come from one galloping gather over the
  // shard's full id-ordered list (0.0 where the phrase is absent).
  const std::size_t num_shards = msg.event.shards.size();
  std::vector<uint64_t> df(np, 0);
  std::vector<uint64_t> codf(np * nt, 0);
  std::vector<double> base(np * nt);
  for (std::size_t s = 0; s < num_shards && *ok; ++s) {
    const ShardUpdateEvent& se = msg.event.shards[s];
    fleet_->WithShard(s, [&](MiningEngine& engine) {
      engine.EnsureIdOrderedLists(terms);
      engine.WithSharedStructures([&] {
        if (engine.structure_version() != se.structure_version) {
          *ok = false;
          return;
        }
        for (std::size_t j = 0; j < nt; ++j) {
          double* probs_j = base.data() + j * np;
          if (const SharedSoAList list =
                  engine.FullIdOrderedListLocked(terms[j])) {
            kernels::GatherProbes(*list, touched, probs_j);
          } else {
            std::fill(probs_j, probs_j + np, 0.0);
          }
        }
        const DeltaIndex* delta = se.delta.get();
        const PhraseDictionary& dict = engine.dict();
        for (std::size_t i = 0; i < np; ++i) {
          const PhraseId p = touched[i];
          if (p >= dict.size()) continue;
          const uint32_t base_df = dict.df(p);
          const uint32_t df_adj = AdjustedShardDf(base_df, p, delta);
          df[i] += df_adj;
          for (std::size_t j = 0; j < nt; ++j) {
            codf[i * nt + j] += AdjustedShardCodf(
                base[j * np + i], base_df, terms[j], p, delta, df_adj);
          }
        }
      });
    });
  }
  if (!*ok) return out;

  for (std::size_t i = 0; i < np; ++i) {
    bool all_present = true;
    for (std::size_t j = 0; j < nt; ++j) {
      const uint64_t c = codf[i * nt + j];
      if (c == 0) all_present = false;
      probs[j] = df[i] == 0 ? 0.0
                            : static_cast<double>(c) /
                                  static_cast<double>(df[i]);
    }
    if (op == QueryOperator::kAnd && !all_present) continue;
    const double score = op == QueryOperator::kAnd
                             ? AndScore(probs)
                             : OrScore(probs, sub.request.or_order);
    if (op == QueryOperator::kAnd ? score == kMinusInfinity : !(score > 0.0)) {
      continue;
    }
    out[i] = Rescored{true, score, ScoreToInterestingness(score, op)};
  }
  return out;
}

void SubscriptionManager::Remine(Sub& sub, const CancelToken* cancel,
                                 bool bootstrap, TraceSpan* span) {
  if (!bootstrap) remine_total_->Increment();
  SpanTimer timer(span);

  MineOptions mo;
  mo.k = sub.k_shadow;
  mo.or_order = sub.request.or_order;
  mo.cancel = cancel;
  MineResult result = fleet_->Mine(sub.query, Algorithm::kSmj, mo).result;
  if (!result.status.ok()) {
    // Cancelled or failed mid-run: partial rankings must never be
    // installed. Stay dirty; the next event retries.
    sub.dirty = true;
    if (cancel != nullptr && cancel->cancelled()) {
      fanout_deadline_total_->Increment();
    }
    return;
  }

  sub.shadow = std::move(result.phrases);
  sub.bound_none = sub.shadow.size() < sub.k_shadow;
  if (!sub.bound_none) {
    sub.bound_score = sub.shadow.back().score;
    sub.bound_phrase = sub.shadow.back().phrase;
  }
  sub.state_vec = std::move(result.shard_epochs);
  sub.dirty = false;
  sub.bootstrapped = true;
  Publish(sub, /*exact=*/true, bootstrap);
}

void SubscriptionManager::Publish(Sub& sub, bool exact, bool initial) {
  const std::size_t k = std::min(sub.request.k, sub.shadow.size());
  std::vector<MinedPhrase> topk(sub.shadow.begin(), sub.shadow.begin() + k);
  const uint64_t epoch = VecSum(sub.state_vec);

  // The failpoint models the notification channel to one subscriber:
  // injected latency slows only this worker (ingest keeps publishing
  // events into the bounded queue), an injected error drops the
  // notification while the published state still advances. Evaluated
  // outside the lock so an armed delay never blocks Poll/Subscribe.
  const Status notify_status = PM_FAILPOINT("subscribe.notify");

  bool notify = false;
  {
    std::scoped_lock lock(subs_mu_);
    std::vector<TopKChange> changes = DiffTopK(sub.published, topk);
    const bool changed = !sub.ever_published || initial || !changes.empty() ||
                         exact != sub.published_exact;
    sub.published = topk;
    sub.published_epoch = epoch;
    sub.published_exact = exact;
    sub.ever_published = true;
    if (changed) {
      if (!notify_status.ok()) {
        dropped_total_->Increment();
      } else {
        if (sub.updates.size() >= options_.queue_capacity) {
          sub.updates.pop_front();
          dropped_total_->Increment();
        }
        SubscriptionUpdate update;
        update.subscription = sub.id;
        update.epoch = epoch;
        update.exact = exact;
        update.initial = initial;
        update.topk = std::move(topk);
        update.changes = std::move(changes);
        sub.updates.push_back(std::move(update));
        notifications_total_->Increment();
        notify = true;
      }
    }
  }
  if (notify) subs_cv_.notify_all();
}

Result<uint64_t> SubscriptionManager::Subscribe(
    const SubscriptionRequest& request) {
  if (request.terms.empty()) {
    return Status::InvalidArgument("subscription needs at least one term");
  }
  if (request.k == 0) {
    return Status::InvalidArgument("subscription k must be positive");
  }
  // Full id-ordered lists are what makes both the incremental rescore and
  // the re-mine fallback exact; truncated lists would make them silently
  // approximate, so refuse instead.
  if (fleet_->smj_fraction() < 1.0) {
    return Status::FailedPrecondition(
        "subscriptions need full SMJ lists (smj_fraction >= 1)");
  }

  // Canonicalize exactly like PhraseService: sorted, deduplicated terms.
  std::vector<std::string> terms = request.terms;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string text;
  for (const std::string& t : terms) {
    if (!text.empty()) text += ' ';
    text += t;
  }
  Result<Query> query = fleet_->ParseQuery(text, request.op);
  if (!query.ok()) return query.status();

  auto sub = std::make_shared<Sub>();
  sub->request = request;
  sub->request.terms = std::move(terms);
  sub->query = std::move(query).value();
  sub->k_shadow = request.k + options_.shadow_pad;

  uint64_t id = 0;
  {
    std::scoped_lock lock(subs_mu_);
    id = next_id_++;
    sub->id = id;
    subs_.emplace(id, sub);
  }
  subscriptions_gauge_->Add(1);

  Msg msg;
  msg.kind = Msg::Kind::kBootstrap;
  msg.subscription = id;
  EnqueueEvent(std::move(msg));
  return id;
}

Status SubscriptionManager::Unsubscribe(uint64_t id) {
  std::shared_ptr<Sub> sub;
  {
    std::scoped_lock lock(subs_mu_);
    auto it = subs_.find(id);
    if (it == subs_.end()) {
      return Status::NotFound("unknown subscription");
    }
    sub = it->second;
    subs_.erase(it);
  }
  sub->cancelled.store(true, std::memory_order_relaxed);
  subscriptions_gauge_->Add(-1);
  subs_cv_.notify_all();  // wake any Poll waiter parked on this id
  return Status::OK();
}

Result<std::vector<SubscriptionUpdate>> SubscriptionManager::Poll(
    uint64_t id, std::size_t max_updates, double wait_ms) {
  std::unique_lock lock(subs_mu_);
  auto it = subs_.find(id);
  if (it == subs_.end()) return Status::NotFound("unknown subscription");
  std::shared_ptr<Sub> sub = it->second;
  if (sub->updates.empty() && wait_ms > 0.0) {
    subs_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(wait_ms), [&] {
          return !sub->updates.empty() ||
                 sub->cancelled.load(std::memory_order_relaxed);
        });
  }
  std::vector<SubscriptionUpdate> out;
  while (!sub->updates.empty() && out.size() < max_updates) {
    out.push_back(std::move(sub->updates.front()));
    sub->updates.pop_front();
  }
  return out;
}

Result<SubscriptionState> SubscriptionManager::Snapshot(uint64_t id) const {
  std::scoped_lock lock(subs_mu_);
  auto it = subs_.find(id);
  if (it == subs_.end()) return Status::NotFound("unknown subscription");
  SubscriptionState state;
  state.epoch = it->second->published_epoch;
  state.exact = it->second->published_exact;
  state.topk = it->second->published;
  return state;
}

void SubscriptionManager::Flush() {
  std::unique_lock lock(queue_mu_);
  drain_cv_.wait(lock, [this] {
    return shutdown_ || (queue_.empty() && !processing_);
  });
}

std::size_t SubscriptionManager::num_subscriptions() const {
  std::scoped_lock lock(subs_mu_);
  return subs_.size();
}

std::shared_ptr<const TraceSpan> SubscriptionManager::LastBatchTrace() const {
  std::scoped_lock lock(subs_mu_);
  return last_batch_trace_;
}

}  // namespace phrasemine
