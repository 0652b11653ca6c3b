#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/io_util.h"
#include "common/stopwatch.h"
#include "core/delta_index.h"
#include "core/interestingness.h"
#include "core/kernels.h"
#include "core/scoring.h"
#include "index/word_lists.h"
#include "obs/trace.h"
#include "phrase/phrase_extractor.h"
#include "storage/index_file.h"
#include "testing/failpoint.h"

namespace phrasemine {

uint32_t AdjustedShardDf(uint32_t base_df, PhraseId p,
                         const DeltaIndex* delta) {
  int64_t df = static_cast<int64_t>(base_df);
  if (delta != nullptr) df += delta->DfDelta(p);
  return static_cast<uint32_t>(std::max<int64_t>(df, 0));
}

uint32_t AdjustedShardCodf(double base_prob, uint32_t base_df, TermId term,
                           PhraseId p, const DeltaIndex* delta,
                           uint32_t df_adj) {
  int64_t codf = std::llround(base_prob * static_cast<double>(base_df));
  if (delta != nullptr) codf += delta->CoDelta(term, p);
  return static_cast<uint32_t>(
      std::clamp<int64_t>(codf, 0, static_cast<int64_t>(df_adj)));
}

namespace {

/// How a sharded mine scatters and gathers. Exact and SMJ enumerate every
/// support their monolithic counterpart would read (exhaustive), so the
/// merge is exact; the other algorithms discover candidates with a bounded
/// per-shard top-k' and the gather refines exact global supports for the
/// union only.
enum class MergeMode {
  kCountExhaustive,  ///< kExact: full sub-collection forward scan.
  kCountTopK,        ///< kGm/kSimitsis: local mine, then count refinement.
  kListExhaustive,   ///< kSmj: full per-term list union.
  kListTopK,         ///< kNra/kNraDisk: local mine, then list refinement.
};

MergeMode ModeFor(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kExact:
      return MergeMode::kCountExhaustive;
    case Algorithm::kGm:
    case Algorithm::kSimitsis:
      return MergeMode::kCountTopK;
    case Algorithm::kSmj:
      return MergeMode::kListExhaustive;
    case Algorithm::kNra:
    case Algorithm::kNraDisk:
      return MergeMode::kListTopK;
  }
  return MergeMode::kCountTopK;
}

bool IsCountMode(MergeMode mode) {
  return mode == MergeMode::kCountExhaustive || mode == MergeMode::kCountTopK;
}

bool IsTopKMode(MergeMode mode) {
  return mode == MergeMode::kCountTopK || mode == MergeMode::kListTopK;
}

/// Severity order for merging per-shard guarantees (worst wins).
int GuaranteeRank(UpdateGuarantee g) {
  switch (g) {
    case UpdateGuarantee::kFresh:
      return 0;
    case UpdateGuarantee::kExactUnderDelta:
      return 1;
    case UpdateGuarantee::kApproximateUnderDelta:
      return 2;
    case UpdateGuarantee::kStale:
      return 3;
  }
  return 3;
}

/// One candidate's supports within one shard (scatter output). The phrase
/// id is global -- every shard clones the same frozen phrase set -- which
/// is what lets the gather join candidates with integer keys.
struct ShardCandidate {
  PhraseId phrase = kInvalidPhraseId;
  uint32_t df = 0;
  uint32_t freq_subset = 0;           // count modes
  std::vector<uint32_t> codf;         // list modes, aligned with query terms
};

/// Everything one shard contributes in the scatter round.
struct ShardScatter {
  std::vector<ShardCandidate> candidates;
  std::size_t subcollection = 0;      // count modes: |D'_s|
  std::size_t num_docs = 0;           // shard corpus size |D_s|
  uint64_t epoch = 0;
  UpdateGuarantee guarantee = UpdateGuarantee::kFresh;
  uint64_t entries_read = 0;
  double disk_ms = 0.0;
  DiskIoStats disk_io;  // this shard's own device (kNraDisk scatters)
  /// k'-th local score on the top-k' paths when the shard's result was
  /// truncated at k' (i.e. more could exist below); 0 when it reported
  /// everything it found.
  double local_floor = 0.0;
  /// Non-OK when the shard's local mine aborted (deadline fired inside the
  /// shard miner, or its disk tier latched an error): the leg's candidates
  /// are a partial view and the merge must abort with this status.
  Status status;
};

/// Supports one shard computed for union candidates in the fill round.
struct PartialSupport {
  uint32_t df = 0;
  uint32_t freq_subset = 0;
  std::vector<uint32_t> codf;
};

/// One merged candidate with summed global supports.
struct GlobalCandidate {
  PhraseId phrase = kInvalidPhraseId;
  uint64_t df = 0;
  uint64_t freq_subset = 0;
  std::vector<uint64_t> codf;
};

int64_t ClampCount(int64_t value, int64_t hi) {
  return std::clamp<int64_t>(value, 0, hi);
}

/// The overlay actually in effect for a snapshot (null when none).
const DeltaIndex* PendingDelta(const EpochDelta& snap) {
  return snap.delta != nullptr && snap.delta->pending_updates() > 0
             ? snap.delta.get()
             : nullptr;
}

// Every scatter/fill helper below validates the shard's structure
// generation against the caller's snapshot under the shared structure
// lock and reports false on mismatch: the caller then retries the whole
// mine with fresh snapshots, so one merged result never mixes pre- and
// post-rebuild supports. Plain ingests don't perturb a running mine --
// the overlay is the snapshot's immutable DeltaIndex, not the live one.

/// Exhaustive count scatter: mirrors ExactMiner over the shard's base
/// structures (count-based methods cannot consult the overlay, so under
/// pending updates the shard result -- like the monolithic one -- is
/// stale and stamped as such).
bool CountScatter(MiningEngine& engine, const Query& query,
                  Algorithm algorithm, const EpochDelta& snap,
                  ShardScatter* out) {
  *out = ShardScatter{};
  out->epoch = snap.epoch;
  out->guarantee = GuaranteeFor(algorithm, PendingDelta(snap) != nullptr);
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    const std::vector<DocId> subset =
        EvalSubCollection(query, engine.inverted());
    out->subcollection = subset.size();
    out->num_docs = engine.forward().num_docs();
    // Dense scratch counters, the ExactMiner pattern; thread-local so a
    // pool worker pays the dictionary-sized allocation once, not per
    // query. Touched entries are reset on exit, keeping the array
    // all-zero between uses (grow-only across engines).
    thread_local std::vector<uint32_t> counts;
    if (counts.size() < engine.dict().size()) {
      counts.resize(engine.dict().size(), 0);
    }
    std::vector<PhraseId> touched;
    for (DocId d : subset) {
      for (PhraseId p : engine.forward().Phrases(d, engine.dict())) {
        if (counts[p] == 0) touched.push_back(p);
        ++counts[p];
        ++out->entries_read;
      }
    }
    out->candidates.reserve(touched.size());
    for (PhraseId p : touched) {
      out->candidates.push_back(
          ShardCandidate{p, engine.dict().df(p), counts[p], {}});
      counts[p] = 0;
    }
    return true;
  });
}

/// Exhaustive list scatter: unions every per-term (phrase, prob) entry of
/// the shard's full word lists -- delta-overlaid, so the shard stays exact
/// under pending updates exactly the way monolithic SMJ does. A phrase
/// qualifies as a candidate with a single positive term (OR semantics);
/// the gather applies the global AND filter, which is what catches
/// phrases whose terms co-occur only across shards.
bool ListScatter(MiningEngine& engine, const Query& query,
                 Algorithm algorithm, const EpochDelta& snap,
                 ShardScatter* out) {
  const std::size_t r = query.terms.size();
  engine.EnsureIdOrderedLists(query.terms);  // includes the score lists
  const DeltaIndex* delta = PendingDelta(snap);
  *out = ShardScatter{};
  out->epoch = snap.epoch;
  out->guarantee =
      GuaranteeFor(algorithm, delta != nullptr, /*smj_full_lists=*/true);
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    for (TermId t : query.terms) {
      if (!engine.word_lists().Has(t)) return false;
    }
    out->num_docs = engine.forward().num_docs();
    std::unordered_map<PhraseId, std::size_t> slot;
    auto fold = [&](std::size_t term_index, PhraseId phrase, double prob) {
      const TermId t = query.terms[term_index];
      const uint32_t base_df = engine.dict().df(phrase);
      const uint32_t df_adj = AdjustedShardDf(base_df, phrase, delta);
      const uint32_t codf =
          AdjustedShardCodf(prob, base_df, t, phrase, delta, df_adj);
      ++out->entries_read;
      if (codf == 0) return;
      auto [it, inserted] = slot.try_emplace(phrase, out->candidates.size());
      if (inserted) {
        ShardCandidate cand;
        cand.phrase = phrase;
        cand.df = df_adj;
        cand.codf.assign(r, 0);
        out->candidates.push_back(std::move(cand));
      }
      out->candidates[it->second].codf[term_index] = codf;
    };
    // The engine's cached id-ordered lists carry the SoA views the fold
    // streams over (contiguous id/prob arrays), and double as the
    // pre-sorted base the delta extras merge against -- no per-query
    // re-sort. Only a full-fraction cache is usable (sharded SMJ merges
    // full lists); the score-ordered scan below is the fallback when a
    // concurrent invalidation or a truncated fraction removed it.
    const WordIdOrderedLists* idl = engine.id_ordered_lists();
    const bool use_idl = idl != nullptr && idl->fraction() >= 1.0;
    for (std::size_t i = 0; i < r; ++i) {
      const TermId t = query.terms[i];
      if (use_idl && idl->Has(t)) {
        const SoABlockList* soa = idl->soa(t);
        const PhraseId* ids = soa->ids();
        const double* probs = soa->probs();
        const std::size_t len = soa->size();
        for (std::size_t k = 0; k < len; ++k) fold(i, ids[k], probs[k]);
        if (delta != nullptr) {
          for (const ListEntry& extra :
               delta->ExtraIdOrderedEntries(t, idl->list(t))) {
            fold(i, extra.phrase, extra.prob);
          }
        }
        continue;
      }
      const SharedWordList base = engine.word_lists().shared(t);
      for (const ListEntry& entry : *base) fold(i, entry.phrase, entry.prob);
      if (delta != nullptr) {
        // Pairs whose co-occurrence became positive purely through
        // updates are absent from the stored list; enumerate them the
        // same way the monolithic SMJ bundle assembly does.
        const SharedWordList id_base = WordIdOrderedLists::IdOrderPrefix(
            std::span<const ListEntry>(*base));
        for (const ListEntry& extra : delta->ExtraIdOrderedEntries(
                 t, std::span<const ListEntry>(*id_base))) {
          fold(i, extra.phrase, extra.prob);
        }
      }
    }
    return true;
  });
}

/// Top-k' discovery scatter: runs the shard's own miner and reports the
/// result phrases as candidates, supports to be refined in the fill
/// round (against the caller's snapshot -- the local mine may race onto
/// a newer overlay, which only affects which identities it discovers).
bool TopKScatter(MiningEngine& engine, const Query& query,
                 Algorithm algorithm, const MineOptions& options,
                 std::size_t k_prime, const EpochDelta& snap,
                 ShardScatter* out) {
  MineOptions local = options;
  local.k = k_prime;
  // The sharded merge narrates its own scatter/fill/gather story; a
  // per-shard miner trace would be discarded unseen, so don't build one.
  local.trace = false;
  // Local top-k' candidates are identities for the merge, never
  // materialized as text -- billing every shard device k' random phrase
  // lookups would add a constant per-device cost that does not
  // partition. The merged top-k's texts are resolved at the gather from
  // the router's in-memory phrase file (Assemble below), so the sharded
  // device model deliberately covers word-list I/O only; the monolithic
  // kNraDisk path keeps the paper's k-lookup materialization charge.
  // See docs/disk_tier.md.
  local.charge_phrase_lookups = false;
  const MineResult mined = engine.Mine(query, algorithm, local);
  *out = ShardScatter{};
  out->status = mined.status;
  out->epoch = snap.epoch;
  out->guarantee = GuaranteeFor(algorithm, PendingDelta(snap) != nullptr,
                                /*smj_full_lists=*/true);
  out->entries_read = mined.entries_read;
  out->disk_ms = mined.disk_ms;
  out->disk_io = mined.disk_io;
  out->subcollection = mined.subcollection_size;
  if (mined.phrases.size() >= k_prime && !mined.phrases.empty()) {
    out->local_floor = mined.phrases.back().interestingness;
  }
  engine.WithSharedStructures([&] {
    out->num_docs = engine.forward().num_docs();
    out->candidates.reserve(mined.phrases.size());
    for (const MinedPhrase& mp : mined.phrases) {
      // A dictionary refresh between the mine and this read could hand
      // back ids from the previous set; an out-of-range one must not
      // crash (the fill round's generation check rejects the attempt).
      if (mp.phrase >= engine.dict().size()) continue;
      out->candidates.push_back(ShardCandidate{mp.phrase, 0, 0, {}});
    }
  });
  return true;
}

/// Count-mode fill: document frequency for every needed candidate, plus
/// (when `need_freq`) its sub-collection frequency via one forward scan --
/// the supports the gather sums into the global Eq. 1 inputs.
bool CountFill(MiningEngine& engine, const Query& query,
               std::span<const GlobalCandidate> cands,
               std::span<const uint8_t> need, bool need_freq,
               const EpochDelta& snap, std::size_t* subcollection,
               std::vector<PartialSupport>* out) {
  out->assign(cands.size(), PartialSupport{});
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    std::unordered_map<PhraseId, std::size_t> slot;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!need[i]) continue;
      const PhraseId p = cands[i].phrase;
      if (p >= engine.dict().size()) continue;
      (*out)[i].df = engine.dict().df(p);
      if (need_freq) slot.emplace(p, i);
    }
    if (need_freq) {
      const std::vector<DocId> subset =
          EvalSubCollection(query, engine.inverted());
      *subcollection = subset.size();
      for (DocId d : subset) {
        for (PhraseId p : engine.forward().Phrases(d, engine.dict())) {
          auto it = slot.find(p);
          if (it != slot.end()) ++(*out)[it->second].freq_subset;
        }
      }
    }
    return true;
  });
}

/// List-mode fill: delta-corrected df and per-term co-occurrence counts
/// for every needed candidate, via one pass over each term's word list.
bool ListFill(MiningEngine& engine, const Query& query,
              std::span<const GlobalCandidate> cands,
              std::span<const uint8_t> need, bool need_codf,
              const EpochDelta& snap, std::vector<PartialSupport>* out) {
  const std::size_t r = query.terms.size();
  if (need_codf) engine.EnsureIdOrderedLists(query.terms);
  const DeltaIndex* delta = PendingDelta(snap);
  out->assign(cands.size(), PartialSupport{});
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    if (need_codf) {
      for (TermId t : query.terms) {
        if (!engine.word_lists().Has(t)) return false;
      }
    }
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!need[i]) continue;
      const PhraseId p = cands[i].phrase;
      if (p >= engine.dict().size()) continue;
      (*out)[i].df = AdjustedShardDf(engine.dict().df(p), p, delta);
      if (need_codf) (*out)[i].codf.assign(r, 0);
    }
    if (!need_codf) return true;

    const WordIdOrderedLists* idl = engine.id_ordered_lists();
    bool use_idl = idl != nullptr && idl->fraction() >= 1.0;
    if (use_idl) {
      for (TermId t : query.terms) use_idl = use_idl && idl->Has(t);
    }
    if (use_idl) {
      // Kernel path: one galloping pass per term over the id-ordered SoA
      // list gathers every needed candidate's stored probability (0.0
      // when absent). AdjustedShardCodf on a 0.0 base recovers exactly the
      // delta-only count the scan path computes for absent candidates,
      // so the two paths produce identical supports.
      std::vector<std::pair<PhraseId, std::size_t>> probes;
      probes.reserve(cands.size());
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (!need[i]) continue;
        if (cands[i].phrase >= engine.dict().size()) continue;
        probes.emplace_back(cands[i].phrase, i);
      }
      std::sort(probes.begin(), probes.end());
      std::vector<PhraseId> probe_ids(probes.size());
      for (std::size_t m = 0; m < probes.size(); ++m) {
        probe_ids[m] = probes[m].first;
      }
      std::vector<double> gathered(probes.size());
      for (std::size_t j = 0; j < r; ++j) {
        const TermId t = query.terms[j];
        kernels::GatherProbes(*idl->soa(t), probe_ids, gathered.data());
        for (std::size_t m = 0; m < probes.size(); ++m) {
          const std::size_t i = probes[m].second;
          const PhraseId p = probes[m].first;
          const uint32_t base_df = engine.dict().df(p);
          (*out)[i].codf[j] = AdjustedShardCodf(gathered[m], base_df, t, p, delta,
                                           (*out)[i].df);
        }
      }
      return true;
    }

    // Fallback scan over the score-ordered lists (truncated id-list cache
    // or a concurrent invalidation), the pre-kernel reference path.
    std::unordered_map<PhraseId, std::size_t> slot;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!need[i]) continue;
      const PhraseId p = cands[i].phrase;
      if (p >= engine.dict().size()) continue;
      slot.emplace(p, i);
    }
    std::vector<uint8_t> in_base(cands.size());
    for (std::size_t j = 0; j < r; ++j) {
      const TermId t = query.terms[j];
      std::fill(in_base.begin(), in_base.end(), 0);
      for (const ListEntry& entry : engine.word_lists().list(t)) {
        auto it = slot.find(entry.phrase);
        if (it == slot.end()) continue;
        const std::size_t i = it->second;
        in_base[i] = 1;
        const uint32_t base_df = engine.dict().df(entry.phrase);
        (*out)[i].codf[j] = AdjustedShardCodf(entry.prob, base_df, t,
                                         entry.phrase, delta, (*out)[i].df);
      }
      if (delta == nullptr) continue;
      // Candidates absent from the base list may still have a positive
      // co-occurrence purely through updates.
      for (const auto& [p, i] : slot) {
        if (in_base[i]) continue;
        (*out)[i].codf[j] = static_cast<uint32_t>(ClampCount(
            delta->CoDelta(t, p), static_cast<int64_t>((*out)[i].df)));
      }
    }
    return true;
  });
}

}  // namespace

ShardedEngine ShardedEngine::Build(Corpus corpus, Options options) {
  if (options.num_shards == 0) options.num_shards = 1;
  // One disk-tier configuration: the fleet-level switches are merged
  // with any tier declared on the embedded engine options (set-wins, so
  // a tier configured on either surface survives), then written back to
  // both so every consumer of options_.engine -- Build and
  // RefreshDictionary -- sees the same per-shard tier.
  options.disk_backed = options.disk_backed || options.engine.disk_backed;
  if (options.disk_budget_per_shard == 0) {
    options.disk_budget_per_shard = options.engine.disk_resident_budget;
  }
  options.engine.disk_backed = options.disk_backed;
  options.engine.disk_resident_budget = options.disk_budget_per_shard;
  // Per-shard persist paths always derive from the fleet-level prefix: an
  // engine-level persist_path would send every shard to the same file, so
  // it is cleared unconditionally (see Options::persist_path).
  options.engine.persist_path.clear();
  ShardedEngine sharded;
  sharded.options_ = std::move(options);
  const std::size_t n = sharded.options_.num_shards;

  // The global phrase set: exactly the dictionary a monolithic engine
  // would extract from this corpus. Every shard clones it (global ids)
  // and recounts dfs over its own slice.
  PhraseExtractor extractor(sharded.options_.engine.extractor);
  sharded.global_set_ =
      std::make_shared<const PhraseDictionary>(extractor.Extract(corpus));
  MiningEngineOptions shard_options = sharded.options_.engine;
  shard_options.fixed_phrase_set = sharded.global_set_;

  // Partition the documents; every shard corpus carries a full copy of the
  // source vocabulary so term ids stay global.
  std::vector<Corpus> parts(n);
  for (Corpus& part : parts) part.vocab() = corpus.vocab();
  sharded.shard_globals_.resize(n);
  sharded.locate_.reserve(corpus.size());
  sharded.dead_.assign(corpus.size(), 0);
  for (DocId g = 0; g < corpus.size(); ++g) {
    const auto s = static_cast<uint32_t>(sharded.ShardOf(g));
    sharded.locate_.push_back(
        {s, static_cast<DocId>(sharded.shard_globals_[s].size())});
    sharded.shard_globals_[s].push_back(g);
    parts[s].AddDocument(corpus.doc(g));
  }

  ThreadPoolOptions pool_options;
  pool_options.num_threads =
      sharded.options_.mine_threads != 0 ? sharded.options_.mine_threads : n;
  pool_options.queue_capacity = std::max<std::size_t>(4 * n, 64);
  sharded.pool_ = std::make_unique<ThreadPool>(pool_options);

  sharded.shards_.resize(n);
  sharded.ParallelOverShards([&](std::size_t s) {
    MiningEngineOptions opts = shard_options;
    if (!sharded.options_.persist_path.empty()) {
      opts.persist_path = ShardFilePath(sharded.options_.persist_path, s);
    }
    sharded.shards_[s] = std::make_shared<MiningEngine>(
        MiningEngine::Build(std::move(parts[s]), opts));
  });
  sharded.rebuild_recommended_.assign(n, 0);
  if (!sharded.options_.persist_path.empty()) {
    // Each shard already persisted itself during its Build; surface the
    // first failure, then write the fleet manifest alongside them.
    for (std::size_t s = 0; s < n && sharded.persist_status_.ok(); ++s) {
      sharded.persist_status_ = sharded.shards_[s]->persist_status();
    }
    if (sharded.persist_status_.ok()) {
      sharded.persist_status_ =
          sharded.SaveManifestLocked(sharded.options_.persist_path);
    }
  }
  return sharded;
}

ShardedEngine ShardedEngine::Adopt(MiningEngine* engine) {
  ShardedEngine sharded;
  sharded.options_.num_shards = 1;
  sharded.options_.engine = engine->options();
  sharded.options_.disk_backed = engine->options().disk_backed;
  sharded.options_.disk_budget_per_shard =
      engine->options().disk_resident_budget;
  // Borrowed, never owned: the no-op deleter leaves the engine to its
  // caller, and nothing below ever replaces it (RefreshDictionary refuses).
  sharded.shards_.push_back(
      std::shared_ptr<MiningEngine>(engine, [](MiningEngine*) {}));
  sharded.adopted_ = engine;
  return sharded;
}

std::string ShardedEngine::ShardFilePath(const std::string& prefix,
                                         std::size_t shard) {
  return prefix + ".shard" + std::to_string(shard) + ".pmidx";
}

std::string ShardedEngine::FleetManifestPath(const std::string& prefix) {
  return prefix + ".fleet.pmidx";
}

Status ShardedEngine::SaveManifestLocked(const std::string& prefix) const {
  // The manifest is what the shard files cannot carry: the frozen global
  // dictionary (global dfs; every shard file stores its per-shard clone)
  // and the global document numbering. shard_globals_ is the source of
  // truth for the mapping -- locate_ is derived from it at load, and the
  // stale locate_ entries of compacted dead documents are never read.
  BinaryWriter payload;
  payload.PutU32(static_cast<uint32_t>(shards_.size()));
  global_set_->Serialize(&payload);
  payload.PutU64(locate_.size());
  for (uint8_t flag : dead_) payload.PutU8(flag);
  for (const std::vector<DocId>& globals : shard_globals_) {
    payload.PutU64(globals.size());
    for (DocId g : globals) payload.PutU32(g);
  }
  IndexFileWriter writer;
  writer.AddSection(IndexSection::kManifest, payload.TakeBuffer());
  return writer.WriteTo(FleetManifestPath(prefix));
}

Status ShardedEngine::SaveToFiles(const std::string& prefix) const {
  if (adopted_ != nullptr) {
    return Status::FailedPrecondition(
        "adopted fleet: persist the engine with MiningEngine::SaveToFile");
  }
  std::scoped_lock update_lock(*update_mu_);
  std::shared_lock fleet_lock(*shards_mu_);
  // Engine files carry base structures only, so a family written with
  // deltas pending would disagree with the manifest's document roster
  // (ingested documents have no bytes anywhere). Refuse rather than
  // persist a fleet that cannot be reopened faithfully.
  for (const auto& shard : shards_) {
    if (shard->update_stats().pending_updates != 0) {
      return Status::FailedPrecondition(
          "fleet has pending deltas; call Rebuild() before SaveToFiles");
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Status status = shards_[s]->SaveToFile(ShardFilePath(prefix, s));
    if (!status.ok()) return status;
  }
  return SaveManifestLocked(prefix);
}

Result<ShardedEngine> ShardedEngine::LoadFromFiles(const std::string& prefix,
                                                   Options options) {
  auto fleet_file = IndexFile::Open(FleetManifestPath(prefix));
  if (!fleet_file.ok()) return fleet_file.status();
  if (!fleet_file.value().has_section(IndexSection::kManifest)) {
    return Status::Corruption("fleet manifest section missing");
  }
  BinaryReader reader(fleet_file.value().section(IndexSection::kManifest));

  uint32_t num_shards = 0;
  if (Status s = reader.GetU32(&num_shards); !s.ok()) return s;
  if (num_shards == 0 || num_shards > 65536) {
    return Status::Corruption("fleet manifest shard count out of range");
  }
  auto dict = PhraseDictionary::Deserialize(&reader);
  if (!dict.ok()) return dict.status();
  uint64_t num_docs = 0;
  if (Status s = reader.GetU64(&num_docs); !s.ok()) return s;
  if (num_docs > reader.Remaining()) {
    return Status::Corruption("fleet manifest document count exceeds payload");
  }

  // Same option-surface merging as Build, with the structural knobs
  // (shard count, phrase set, persist paths) pinned by the files.
  options.num_shards = num_shards;
  options.disk_backed = options.disk_backed || options.engine.disk_backed;
  if (options.disk_budget_per_shard == 0) {
    options.disk_budget_per_shard = options.engine.disk_resident_budget;
  }
  options.engine.disk_backed = options.disk_backed;
  options.engine.disk_resident_budget = options.disk_budget_per_shard;
  options.engine.persist_path.clear();
  options.persist_path = prefix;

  ShardedEngine sharded;
  sharded.options_ = std::move(options);
  sharded.global_set_ =
      std::make_shared<const PhraseDictionary>(std::move(dict.value()));
  const std::size_t n = num_shards;

  sharded.dead_.resize(num_docs);
  for (uint64_t g = 0; g < num_docs; ++g) {
    if (Status s = reader.GetU8(&sharded.dead_[g]); !s.ok()) return s;
    if (sharded.dead_[g]) ++sharded.num_dead_;
  }
  sharded.locate_.resize(num_docs);
  sharded.shard_globals_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    uint64_t count = 0;
    if (Status st = reader.GetU64(&count); !st.ok()) return st;
    if (count > reader.Remaining() / sizeof(DocId)) {
      return Status::Corruption("fleet manifest shard roster exceeds payload");
    }
    std::vector<DocId>& globals = sharded.shard_globals_[s];
    globals.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (Status st = reader.GetU32(&globals[i]); !st.ok()) return st;
      if (globals[i] >= num_docs) {
        return Status::Corruption("fleet manifest document id out of range");
      }
      sharded.locate_[globals[i]] = {static_cast<uint32_t>(s),
                                     static_cast<DocId>(i)};
    }
  }

  ThreadPoolOptions pool_options;
  pool_options.num_threads =
      sharded.options_.mine_threads != 0 ? sharded.options_.mine_threads : n;
  pool_options.queue_capacity = std::max<std::size_t>(4 * n, 64);
  sharded.pool_ = std::make_unique<ThreadPool>(pool_options);

  sharded.shards_.resize(n);
  std::vector<Status> shard_status(n);
  sharded.ParallelOverShards([&](std::size_t s) {
    MiningEngineOptions opts = sharded.options_.engine;
    opts.fixed_phrase_set = sharded.global_set_;
    opts.persist_path = ShardFilePath(prefix, s);
    auto loaded = MiningEngine::LoadFromFile(opts.persist_path, opts);
    if (!loaded.ok()) {
      shard_status[s] = loaded.status();
      return;
    }
    sharded.shards_[s] =
        std::make_shared<MiningEngine>(std::move(loaded.value()));
  });
  for (const Status& st : shard_status) {
    if (!st.ok()) return st;
  }
  for (std::size_t s = 0; s < n; ++s) {
    // Cross-file consistency: a shard file from another fleet generation
    // would silently desynchronize the document routing or phrase ids.
    if (sharded.shards_[s]->corpus().size() !=
            sharded.shard_globals_[s].size() ||
        sharded.shards_[s]->dict().size() != sharded.global_set_->size()) {
      return Status::Corruption("shard file disagrees with fleet manifest");
    }
  }
  sharded.rebuild_recommended_.assign(n, 0);
  return sharded;
}

std::size_t ShardedEngine::ShardOf(DocId global) const {
  const std::size_t n = options_.num_shards;
  if (options_.partitioner) return options_.partitioner(global, n) % n;
  // SplitMix64 finalizer: hash partitioning keeps shard sizes balanced
  // regardless of any ordering structure in the incoming corpus.
  uint64_t z = static_cast<uint64_t>(global) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % n;
}

void ShardedEngine::ParallelOverShards(
    const std::function<void(std::size_t)>& fn) {
  const std::size_t n = shards_.size() != 0 ? shards_.size()
                                            : shard_globals_.size();
  if (n <= 1) {
    for (std::size_t s = 0; s < n; ++s) fn(s);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        [&fn, s] { fn(s); });
    futures.push_back(task->get_future());
    // TrySubmit so a saturated pool degrades to inline execution on the
    // caller's thread instead of risking submitter pile-ups under heavy
    // concurrent fan-out.
    if (!pool_->TrySubmit([task] { (*task)(); })) (*task)();
  }
  for (std::future<void>& f : futures) f.get();
}

Result<Query> ShardedEngine::ParseQuery(std::string_view text,
                                        QueryOperator op) const {
  std::shared_lock fleet_lock(*shards_mu_);
  return shards_[0]->ParseQuery(text, op);
}

std::string ShardedEngine::PhraseText(PhraseId id) const {
  std::shared_lock fleet_lock(*shards_mu_);
  return shards_[0]->PhraseText(id);
}

double ShardedEngine::smj_fraction() const {
  return adopted_ != nullptr ? adopted_->smj_fraction() : 1.0;
}

std::vector<PlannerInputs> ShardedEngine::GatherPlannerInputs(
    const Query& query, const MineOptions& options) const {
  std::shared_lock fleet_lock(*shards_mu_);
  std::vector<PlannerInputs> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(CostPlanner::GatherInputs(*shard, query, options,
                                            shard->delta_snapshot()));
  }
  return out;
}

ShardedMineResult ShardedEngine::Mine(const Query& query, Algorithm algorithm,
                                      const MineOptions& options) {
  PM_CHECK_MSG(options.delta == nullptr,
               "ShardedEngine applies per-shard overlays internally");
  if (adopted_ != nullptr) {
    ShardedMineResult out;
    out.result = adopted_->Mine(query, algorithm, options);
    out.result.shard_epochs = {out.result.epoch};
    out.shard_disk_io = {out.result.disk_io};
    out.exact_merge = true;  // it is the engine's own mine
    return out;
  }
  StopWatch watch;
  std::shared_lock fleet_lock(*shards_mu_);
  const std::size_t n = shards_.size();
  const std::size_t r = query.terms.size();
  const MergeMode mode = ModeFor(algorithm);
  const std::size_t k_prime =
      options.k * options_.merge_headroom + options_.merge_slack;

  // Retried from fresh snapshots whenever a shard's structure generation
  // moved between rounds (a rebuild landed mid-mine): one merged result
  // never mixes pre- and post-rebuild supports. Plain ingests don't
  // trigger retries -- every round reads the snapshot's immutable
  // overlay, not the live one.
  for (;;) {
    std::vector<EpochDelta> snaps(n);
    for (std::size_t s = 0; s < n; ++s) {
      snaps[s] = shards_[s]->delta_snapshot();
    }

    // Per-attempt trace: built from scratch each round and attached to the
    // result only when the attempt survives to the gather, so a stale
    // retry never leaks a half-told story into the final tree.
    std::shared_ptr<TraceSpan> trace_root;
    if (options.trace) {
      trace_root = std::make_shared<TraceSpan>();
      trace_root->name = "mine:sharded";
      trace_root->detail = AlgorithmName(algorithm);
    }
    TraceSpan* trace = trace_root.get();
    const double attempt_start = trace != nullptr ? watch.ElapsedMillis() : 0.0;

    // --- Scatter -------------------------------------------------------------
    std::vector<ShardScatter> scatter(n);
    std::atomic<bool> stale{false};

    // Abort path shared by every cancellation/error exit of this attempt:
    // partial accounting from whatever legs ran, the composite epoch
    // vector from the snapshots (legs that never started contribute their
    // snapshot epoch and zero work), and the partial trace with the
    // "cancelled" markers the timing assertions read.
    auto aborted = [&](Status status) -> ShardedMineResult {
      ShardedMineResult out;
      out.result.status = std::move(status);
      out.result.shard_epochs.reserve(n);
      out.shard_disk_io.reserve(n);
      for (std::size_t s = 0; s < n; ++s) {
        out.result.shard_epochs.push_back(snaps[s].epoch);
        out.result.epoch += snaps[s].epoch;
        out.result.entries_read += scatter[s].entries_read;
        out.shard_disk_io.push_back(scatter[s].disk_io);
        out.result.disk_io += scatter[s].disk_io;
        out.result.disk_ms = std::max(out.result.disk_ms, scatter[s].disk_ms);
      }
      out.result.compute_ms = watch.ElapsedMillis();
      if (trace != nullptr) {
        trace->wall_ms = out.result.compute_ms;
        AddCounter(trace, "cancelled", 1.0);
        AddCounter(trace, "entries_at_cancel",
                   static_cast<double>(out.result.entries_read));
        out.result.trace = std::move(trace_root);
      }
      return out;
    };

    // Expired before any leg started (covers stale retries too): no work.
    if (CancelExpired(options.cancel)) {
      return aborted(
          Status::DeadlineExceeded("deadline expired before sharded scatter"));
    }
    // Shard children are created up front so the pool workers each own a
    // distinct, already-placed node -- no locking inside the lambda.
    TraceSpan* scatter_span = AddSpan(trace, "scatter");
    std::vector<TraceSpan*> scatter_shard_spans(n, nullptr);
    for (std::size_t s = 0; s < n && scatter_span != nullptr; ++s) {
      scatter_shard_spans[s] =
          AddSpan(scatter_span, "shard " + std::to_string(s));
    }
    ParallelOverShards([&](std::size_t s) {
      SpanTimer span_timer(scatter_shard_spans[s]);
      // A sibling leg that latched the shared token already aborted the
      // query; skip this leg's whole scatter (flag-only check -- the
      // sibling paid the clock read).
      if (CancelRequested(options.cancel)) return;
      if (failpoint::Enabled()) {
        // Slow-shard straggler site (latency-only; the dynamic name is
        // built only while some failpoint is armed).
        (void)failpoint::Evaluate(
            ("shard.scatter." + std::to_string(s)).c_str());
      }
      bool ok = true;
      switch (mode) {
        case MergeMode::kCountExhaustive:
          ok = CountScatter(*shards_[s], query, algorithm, snaps[s],
                            &scatter[s]);
          break;
        case MergeMode::kListExhaustive:
          ok = ListScatter(*shards_[s], query, algorithm, snaps[s],
                           &scatter[s]);
          break;
        case MergeMode::kCountTopK:
        case MergeMode::kListTopK:
          ok = TopKScatter(*shards_[s], query, algorithm, options, k_prime,
                           snaps[s], &scatter[s]);
          break;
      }
      if (!ok) stale.store(true, std::memory_order_relaxed);
    });
    if (stale.load(std::memory_order_relaxed)) {
      std::this_thread::yield();  // let the rebuild finish before retrying
      continue;
    }
    if (scatter_span != nullptr) {
      scatter_span->wall_ms = watch.ElapsedMillis() - attempt_start;
      for (std::size_t s = 0; s < n; ++s) {
        TraceSpan* ss = scatter_shard_spans[s];
        AddCounter(ss, "entries_read",
                   static_cast<double>(scatter[s].entries_read));
        AddCounter(ss, "candidates",
                   static_cast<double>(scatter[s].candidates.size()));
        if (scatter[s].disk_io.blocks_read > 0) {
          AddCounter(ss, "disk_blocks",
                     static_cast<double>(scatter[s].disk_io.blocks_read));
          AddCounter(ss, "disk_seeks",
                     static_cast<double>(scatter[s].disk_io.seeks));
          AddCounter(ss, "disk_bytes",
                     static_cast<double>(scatter[s].disk_io.bytes));
          AddCounter(ss, "disk_ms", scatter[s].disk_ms);
        }
      }
    }

    // A shard-local abort poisons the merge: its candidates are a partial
    // view. Prefer the shard's own status (a latched disk error is more
    // specific than the deadline that may also have fired by now).
    {
      Status abort_status;
      for (const ShardScatter& sh : scatter) {
        if (!sh.status.ok()) {
          abort_status = sh.status;
          break;
        }
      }
      if (abort_status.ok() && CancelExpired(options.cancel)) {
        abort_status = Status::DeadlineExceeded(
            "deadline expired during sharded scatter");
      }
      if (!abort_status.ok()) return aborted(std::move(abort_status));
    }

    // --- Union (join by global PhraseId) -------------------------------------
    // Ids index the frozen global set, so a dense slot table beats
    // hashing (candidate unions reach thousands of entries on OR
    // queries). Thread-local grow-only scratch: touched entries are
    // reset below, so between uses the table is all-kNoSlot and a query
    // pays no dictionary-sized allocation.
    const std::size_t set_size = global_set_->size();
    constexpr uint32_t kNoSlot = UINT32_MAX;
    thread_local std::vector<uint32_t> slot_of;
    if (slot_of.size() < set_size) slot_of.resize(set_size, kNoSlot);
    std::vector<GlobalCandidate> cands;
    for (const ShardScatter& shard : scatter) {
      for (const ShardCandidate& sc : shard.candidates) {
        // Ids beyond the set can only come from a stale pre-refresh mine;
        // drop them (the shard would re-report under the new set anyway).
        if (sc.phrase >= set_size) continue;
        if (slot_of[sc.phrase] == kNoSlot) {
          slot_of[sc.phrase] = static_cast<uint32_t>(cands.size());
          GlobalCandidate gc;
          gc.phrase = sc.phrase;
          gc.codf.assign(r, 0);
          cands.push_back(std::move(gc));
        }
      }
    }
    // Only the exhaustive merges need the reported matrix (it restricts
    // the fill to unreported shards); top-k' modes fill everything.
    std::vector<std::vector<uint8_t>> reported;
    if (!IsTopKMode(mode)) {
      reported.assign(n, std::vector<uint8_t>(cands.size(), 0));
      // Exhaustive scatter already carries each reporting shard's
      // supports.
      for (std::size_t s = 0; s < n; ++s) {
        for (const ShardCandidate& sc : scatter[s].candidates) {
          if (sc.phrase >= set_size) continue;
          const std::size_t slot = slot_of[sc.phrase];
          reported[s][slot] = 1;
          cands[slot].df += sc.df;
          cands[slot].freq_subset += sc.freq_subset;
          for (std::size_t j = 0; j < sc.codf.size(); ++j) {
            cands[slot].codf[j] += sc.codf[j];
          }
        }
      }
    }
    // Restore the scratch table's all-kNoSlot invariant (also on the
    // stale-retry paths below, which re-enter this block).
    for (const GlobalCandidate& gc : cands) slot_of[gc.phrase] = kNoSlot;

    // --- Totals --------------------------------------------------------------
    // |D| is always scatter-complete; |D'| is too on every path except
    // the count top-k' one, whose sub-collections are counted in the fill
    // round and added below.
    std::size_t total_docs = 0;
    std::size_t total_subcollection = 0;
    for (const ShardScatter& s : scatter) {
      total_docs += s.num_docs;
      if (!(IsTopKMode(mode) && IsCountMode(mode))) {
        total_subcollection += s.subcollection;
      }
    }

    // Global score of one candidate's summed supports -- the single
    // implementation both the final gather and the threshold round use,
    // so a "settled" candidate's threshold score is bitwise the score the
    // gather would compute. Returns false when the candidate can never
    // appear in a result (no subset occurrence / missing AND term /
    // non-positive OR score).
    std::vector<double> probs(r);
    auto evaluate = [&](const GlobalCandidate& gc, double* score,
                        double* interestingness) -> bool {
      if (IsCountMode(mode)) {
        if (gc.freq_subset == 0) return false;
        *score = EvaluateInterestingness(
            options.measure, static_cast<uint32_t>(gc.freq_subset),
            static_cast<uint32_t>(gc.df), total_subcollection, total_docs);
        *interestingness = *score;
        return true;
      }
      bool all_present = true;
      for (std::size_t j = 0; j < r; ++j) {
        if (gc.codf[j] == 0) all_present = false;
        // The monolithic list stores count / df in double; the same
        // division over the summed integers reproduces it bitwise.
        probs[j] = gc.df == 0 ? 0.0
                              : static_cast<double>(gc.codf[j]) /
                                    static_cast<double>(gc.df);
      }
      if (query.op == QueryOperator::kAnd) {
        if (!all_present) return false;
        *score = AndScore(probs);
        if (*score == kMinusInfinity) return false;
      } else {
        *score = OrScore(probs, options.or_order);
        if (*score <= 0.0) return false;
      }
      *interestingness = ScoreToInterestingness(*score, query.op);
      return true;
    };

    // --- Threshold exchange (exhaustive merges) ------------------------------
    // The exhaustive scatter already carries complete freq/codf sums for
    // every candidate; the fill round can only add df, and every
    // supported score is non-increasing in df, so a candidate's score
    // over the scatter sums is an upper bound on its final score. The
    // shards' exchanged supports also settle every candidate reported by
    // all of them (nothing left to fill), making those scores exact; the
    // k-th best settled score is a lower bound on the global k-th result
    // score. Candidates provably below it -- and candidates that can
    // never qualify at all (a missing AND term is already final) -- skip
    // the fill round entirely. The ranked output is bitwise unchanged.
    std::vector<uint8_t> pruned;
    uint64_t pruned_count = 0;
    std::size_t settled_count = 0;       // trace-only exchange accounting
    double exchange_floor = 0.0;
    bool have_exchange_floor = false;
    const double exchange_start = trace != nullptr ? watch.ElapsedMillis() : 0.0;
    const bool df_monotone =
        IsCountMode(mode) || query.op == QueryOperator::kAnd ||
        options.or_order != OrExpansionOrder::kSecondOrder;
    if (options_.threshold_exchange && !IsTopKMode(mode) && df_monotone &&
        options.k > 0 && cands.size() > options.k) {
      pruned.assign(cands.size(), 0);
      struct Settled {
        double score;
        PhraseId phrase;
      };
      std::vector<Settled> settled;
      std::vector<double> upper(cands.size(), 0.0);
      std::vector<uint8_t> alive(cands.size(), 0);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        double score, interest;
        if (!evaluate(cands[i], &score, &interest)) continue;
        alive[i] = 1;
        upper[i] = score;
        bool fully_reported = true;
        for (std::size_t s = 0; s < n && fully_reported; ++s) {
          fully_reported = reported[s][i] != 0;
        }
        if (fully_reported) settled.push_back(Settled{score, cands[i].phrase});
      }
      bool have_floor = false;
      double floor_score = 0.0;
      if (settled.size() >= options.k) {
        std::nth_element(settled.begin(),
                         settled.begin() +
                             static_cast<std::ptrdiff_t>(options.k - 1),
                         settled.end(),
                         [](const Settled& a, const Settled& b) {
                           if (a.score != b.score) return a.score > b.score;
                           return a.phrase < b.phrase;
                         });
        floor_score = settled[options.k - 1].score;
        have_floor = true;
      }
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (!alive[i] || (have_floor && upper[i] < floor_score)) {
          pruned[i] = 1;
          ++pruned_count;
        }
      }
      settled_count = settled.size();
      exchange_floor = floor_score;
      have_exchange_floor = have_floor;
    }
    if (trace != nullptr) {
      TraceSpan* exchange = AddSpan(trace, "exchange");
      exchange->wall_ms = watch.ElapsedMillis() - exchange_start;
      AddCounter(exchange, "candidates", static_cast<double>(cands.size()));
      AddCounter(exchange, "settled", static_cast<double>(settled_count));
      AddCounter(exchange, "pruned", static_cast<double>(pruned_count));
      if (have_exchange_floor) AddCounter(exchange, "floor", exchange_floor);
      if (!(options_.threshold_exchange && !IsTopKMode(mode) && df_monotone)) {
        SetDetail(exchange, "skipped (not applicable)");
      }
    }

    // --- Fill ----------------------------------------------------------------
    // Top-k' scatter discovered identities only: every shard computes
    // full supports for the whole union. Exhaustive scatter is complete
    // except for the df of phrases a shard holds but did not touch for
    // this query (freq or every codf zero there), which still belongs in
    // the global denominator -- unless the threshold exchange proved the
    // candidate out of contention above.
    std::vector<std::vector<PartialSupport>> fill(n);
    std::vector<std::size_t> fill_subcollection(n, 0);
    std::size_t fill_slots = 0;
    const double fill_start = trace != nullptr ? watch.ElapsedMillis() : 0.0;
    TraceSpan* fill_span = AddSpan(trace, "fill");
    if (!cands.empty()) {
      std::vector<TraceSpan*> fill_shard_spans(n, nullptr);
      for (std::size_t s = 0; s < n && fill_span != nullptr; ++s) {
        fill_shard_spans[s] = AddSpan(fill_span, "shard " + std::to_string(s));
      }
      ParallelOverShards([&](std::size_t s) {
        SpanTimer span_timer(fill_shard_spans[s]);
        if (CancelRequested(options.cancel)) {
          // Sibling aborted: contribute zero supports (the merge loop
          // below still indexes fill[s] before the abort check runs).
          fill[s].assign(cands.size(), PartialSupport{});
          return;
        }
        std::vector<uint8_t> need(cands.size());
        for (std::size_t i = 0; i < cands.size(); ++i) {
          need[i] = IsTopKMode(mode)
                        ? 1
                        : (!reported[s][i] &&
                           (pruned.empty() || !pruned[i]));
        }
        bool ok;
        if (IsCountMode(mode)) {
          ok = CountFill(*shards_[s], query, cands, need,
                         /*need_freq=*/IsTopKMode(mode), snaps[s],
                         &fill_subcollection[s], &fill[s]);
        } else {
          ok = ListFill(*shards_[s], query, cands, need,
                        /*need_codf=*/IsTopKMode(mode), snaps[s], &fill[s]);
        }
        if (!ok) stale.store(true, std::memory_order_relaxed);
      });
      if (stale.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const PartialSupport& ps = fill[s][i];
          cands[i].df += ps.df;
          cands[i].freq_subset += ps.freq_subset;
          for (std::size_t j = 0; j < ps.codf.size(); ++j) {
            cands[i].codf[j] += ps.codf[j];
          }
        }
      }
      // Support lookups the fill actually performed (the exchange's
      // savings metric): every (shard, candidate) pair still needing
      // refinement after scatter reporting and threshold pruning.
      if (IsTopKMode(mode)) {
        fill_slots = cands.size() * n;
      } else {
        for (std::size_t i = 0; i < cands.size(); ++i) {
          if (!pruned.empty() && pruned[i]) continue;
          for (std::size_t s = 0; s < n; ++s) {
            fill_slots += reported[s][i] ? 0 : 1;
          }
        }
      }
    }
    if (fill_span != nullptr) {
      fill_span->wall_ms = watch.ElapsedMillis() - fill_start;
      AddCounter(fill_span, "fill_slots", static_cast<double>(fill_slots));
    }
    // Fill legs only skip on an already-latched token, so one more full
    // check bounds the gather: supports merged from a partially-cancelled
    // fill must never rank.
    if (CancelExpired(options.cancel)) {
      return aborted(
          Status::DeadlineExceeded("deadline expired during sharded fill"));
    }
    const double gather_start = trace != nullptr ? watch.ElapsedMillis() : 0.0;

    // --- Gather: global scores from summed supports --------------------------
    if (IsTopKMode(mode) && IsCountMode(mode)) {
      for (std::size_t s = 0; s < n; ++s) {
        total_subcollection += fill_subcollection[s];
      }
    }

    struct Ranked {
      std::size_t slot;
      double score;
      double interestingness;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!pruned.empty() && pruned[i]) continue;
      double score;
      double interestingness;
      if (!evaluate(cands[i], &score, &interestingness)) continue;
      ranked.push_back(Ranked{i, score, interestingness});
    }
    // Ties order by smaller global PhraseId -- the monolithic collector's
    // tie-break, now meaningful fleet-wide thanks to the shared set.
    std::sort(ranked.begin(), ranked.end(),
              [&](const Ranked& a, const Ranked& b) {
                if (a.score != b.score) return a.score > b.score;
                return cands[a.slot].phrase < cands[b.slot].phrase;
              });
    if (ranked.size() > options.k) ranked.resize(options.k);
    if (trace != nullptr) {
      TraceSpan* gather = AddSpan(trace, "gather");
      gather->wall_ms = watch.ElapsedMillis() - gather_start;
      AddCounter(gather, "results", static_cast<double>(ranked.size()));
    }

    // --- Assemble ------------------------------------------------------------
    ShardedMineResult out;
    out.candidates = cands.size();
    out.fill_slots = fill_slots;
    out.result.candidates_pruned = pruned_count;
    out.exact_merge = !IsTopKMode(mode);
    out.result.phrases.reserve(ranked.size());
    out.texts.reserve(ranked.size());
    const double materialize_start =
        trace != nullptr ? watch.ElapsedMillis() : 0.0;
    shards_[0]->WithSharedStructures([&] {
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        const PhraseId id = cands[ranked[i].slot].phrase;
        out.result.phrases.push_back(
            MinedPhrase{id, ranked[i].score, ranked[i].interestingness});
        out.texts.push_back(id < shards_[0]->phrase_file().num_phrases()
                                ? shards_[0]->phrase_file().Text(id)
                                : std::string("<unresolved phrase>"));
      }
    });
    if (trace != nullptr) {
      TraceSpan* materialize = AddSpan(trace, "materialize");
      materialize->wall_ms = watch.ElapsedMillis() - materialize_start;
      AddCounter(materialize, "texts", static_cast<double>(out.texts.size()));
    }
    out.result.peak_candidates = cands.size();
    out.result.subcollection_size =
        IsCountMode(mode) ? total_subcollection : 0;
    out.result.shard_epochs.reserve(n);
    out.shard_disk_io.reserve(n);
    for (const ShardScatter& s : scatter) {
      out.result.shard_epochs.push_back(s.epoch);
      out.result.epoch += s.epoch;
      out.result.entries_read += s.entries_read;
      // Each shard charged its own device: the aggregate counters sum
      // (total device work) while the modeled latency is the slowest
      // device's charge -- the disks run in parallel.
      out.shard_disk_io.push_back(s.disk_io);
      out.result.disk_io += s.disk_io;
      out.result.disk_ms = std::max(out.result.disk_ms, s.disk_ms);
      if (GuaranteeRank(s.guarantee) > GuaranteeRank(out.result.guarantee)) {
        out.result.guarantee = s.guarantee;
      }
      out.candidate_floor = std::max(out.candidate_floor, s.local_floor);
    }
    out.result.compute_ms = watch.ElapsedMillis();
    if (trace != nullptr) {
      trace->wall_ms = out.result.compute_ms;
      AddCounter(trace, "shards", static_cast<double>(n));
      AddCounter(trace, "candidates", static_cast<double>(cands.size()));
      AddCounter(trace, "candidates_pruned",
                 static_cast<double>(pruned_count));
      out.result.trace = std::move(trace_root);
    }
    return out;
  }
}

ShardedUpdateStats ShardedEngine::ApplyUpdate(const UpdateBatch& batch) {
  if (adopted_ != nullptr) {
    ShardedUpdateStats out;
    out.total = adopted_->ApplyUpdate(batch);
    out.epochs = {out.total.epoch};
    out.rebuild_recommended = {out.total.rebuild_recommended ? uint8_t{1}
                                                             : uint8_t{0}};
    return out;
  }
  std::scoped_lock lock(*update_mu_);
  const std::size_t n = shards_.size();

  // Broadcast every ingested term to every shard first: identical intern
  // order from identical vocabularies keeps term ids global, so queries
  // parsed against any shard stay portable (see MiningEngine::InternTerms).
  // One InternTerms call per shard for the whole batch -- per-document
  // round-trips would take each shard's vocab lock O(inserts) times.
  if (!batch.inserts.empty()) {
    std::vector<std::string> batch_terms;
    for (const UpdateDoc& doc : batch.inserts) {
      batch_terms.insert(batch_terms.end(), doc.tokens.begin(),
                         doc.tokens.end());
      batch_terms.insert(batch_terms.end(), doc.facets.begin(),
                         doc.facets.end());
    }
    for (const auto& shard : shards_) shard->InternTerms(batch_terms);
  }

  // Route inserts to their owning shard and translate global delete ids
  // to shard-local ones.
  std::vector<UpdateBatch> per_shard(n);
  for (const UpdateDoc& doc : batch.inserts) {
    const auto g = static_cast<DocId>(locate_.size());
    const auto s = static_cast<uint32_t>(ShardOf(g));
    locate_.push_back({s, static_cast<DocId>(shard_globals_[s].size())});
    shard_globals_[s].push_back(g);
    dead_.push_back(0);
    per_shard[s].inserts.push_back(doc);
  }
  for (DocId g : batch.deletes) {
    if (g >= locate_.size() || dead_[g]) continue;
    dead_[g] = 1;
    ++num_dead_;
    per_shard[locate_[g].shard].deletes.push_back(locate_[g].local);
  }

  ShardedUpdateStats out;
  out.epochs.resize(n);
  out.rebuild_recommended.resize(n);
  const bool want_event = update_listener_ != nullptr;
  ShardedUpdateEvent ev;
  if (want_event) ev.shards.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (!per_shard[s].inserts.empty() || !per_shard[s].deletes.empty()) {
      UpdateEvent shard_ev;
      const UpdateStats stats = shards_[s]->ApplyUpdate(
          per_shard[s], want_event ? &shard_ev : nullptr);
      out.total.batch_inserts += stats.batch_inserts;
      out.total.batch_deletes += stats.batch_deletes;
      rebuild_recommended_[s] = stats.rebuild_recommended ? 1 : 0;
      if (want_event) {
        ev.shards[s] = {shard_ev.epoch, shard_ev.generation,
                        shard_ev.structure_version, std::move(shard_ev.delta)};
        // PhraseIds are global across shards, so the per-shard touched
        // sets union directly into the fleet-level set.
        ev.touched.insert(ev.touched.end(), shard_ev.touched.begin(),
                          shard_ev.touched.end());
      }
    } else if (want_event) {
      const EpochDelta snap = shards_[s]->delta_snapshot();
      ev.shards[s] = {snap.epoch, snap.generation,
                      shards_[s]->structure_version(), snap.delta};
    }
    out.epochs[s] = shards_[s]->epoch();
    out.total.epoch += out.epochs[s];
    out.total.pending_updates += shards_[s]->update_stats().pending_updates;
    out.rebuild_recommended[s] = rebuild_recommended_[s];
  }
  out.total.live_docs = locate_.size() - num_dead_;
  out.total.delta_fraction =
      out.total.live_docs == 0
          ? (out.total.pending_updates > 0 ? 1.0 : 0.0)
          : static_cast<double>(out.total.pending_updates) /
                static_cast<double>(out.total.live_docs);
  for (uint8_t flag : rebuild_recommended_) {
    if (flag) out.total.rebuild_recommended = true;
  }
  if (want_event) {
    std::sort(ev.touched.begin(), ev.touched.end());
    ev.touched.erase(std::unique(ev.touched.begin(), ev.touched.end()),
                     ev.touched.end());
    ev.epoch = out.total.epoch;
    update_listener_(ev);
  }
  return out;
}

void ShardedEngine::SetUpdateListener(ShardedUpdateListener listener) {
  if (adopted_ != nullptr) {
    if (listener == nullptr) {
      adopted_->SetUpdateListener(nullptr);
      return;
    }
    adopted_->SetUpdateListener(
        [listener = std::move(listener)](const UpdateEvent& ev) {
          ShardedUpdateEvent wrapped;
          wrapped.epoch = ev.epoch;
          wrapped.shards = {ShardUpdateEvent{ev.epoch, ev.generation,
                                             ev.structure_version, ev.delta}};
          wrapped.touched = ev.touched;
          wrapped.rebuilt = ev.rebuilt;
          listener(wrapped);
        });
    return;
  }
  std::scoped_lock lock(*update_mu_);
  update_listener_ = std::move(listener);
}

void ShardedEngine::NotifyRebuiltLocked() {
  if (update_listener_ == nullptr) return;
  ShardedUpdateEvent ev;
  ev.rebuilt = true;
  std::shared_lock fleet_lock(*shards_mu_);
  ev.shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const EpochDelta snap = shards_[s]->delta_snapshot();
    ev.shards[s] = {snap.epoch, snap.generation,
                    shards_[s]->structure_version(), snap.delta};
    ev.epoch += snap.epoch;
  }
  update_listener_(ev);
}

void ShardedEngine::Rebuild() {
  // One shard at a time, releasing the update mutex between shards:
  // ingest interleaves and queries only ever lose one shard's freshness.
  for (std::size_t s = 0; s < shards_.size(); ++s) RebuildShard(s);
}

void ShardedEngine::RebuildShard(std::size_t shard) {
  if (adopted_ != nullptr) {
    adopted_->Rebuild();  // fires the wrapped rebuilt event itself
    return;
  }
  std::scoped_lock lock(*update_mu_);
  RebuildShardLocked(shard);
  NotifyRebuiltLocked();
}

void ShardedEngine::RebuildShardLocked(std::size_t shard) {
  shards_[shard]->Rebuild();
  rebuild_recommended_[shard] = 0;
  // The shard compacted its numbering to the live documents in order;
  // mirror that in the global->local mapping.
  std::vector<DocId>& globals = shard_globals_[shard];
  std::vector<DocId> live;
  live.reserve(globals.size());
  for (DocId g : globals) {
    if (dead_[g]) continue;
    locate_[g].local = static_cast<DocId>(live.size());
    live.push_back(g);
  }
  globals = std::move(live);
  if (!options_.persist_path.empty()) {
    // The shard engine re-persisted its own file inside Rebuild; the
    // compaction above changed the roster, so refresh the manifest too.
    persist_status_ = shards_[shard]->persist_status();
    if (persist_status_.ok()) {
      persist_status_ = SaveManifestLocked(options_.persist_path);
    }
  }
}

Status ShardedEngine::RefreshDictionary() {
  if (adopted_ != nullptr) {
    return Status::FailedPrecondition(
        "RefreshDictionary would destroy the adopted engine");
  }
  // Ingest stalls for the whole refresh; queries keep running against the
  // old fleet until the final swap.
  std::scoped_lock update_lock(*update_mu_);
  const std::size_t n = shards_.size();

  // 1. Absorb every shard's pending updates into its base structures so
  //    the base corpus below IS the live document set.
  for (std::size_t s = 0; s < n; ++s) RebuildShardLocked(s);

  // 2. Snapshot every shard's live corpus (one locked clone each, reused
  //    for both the extraction union and the offline rebuild) and
  //    re-extract the global phrase set over the union.
  std::vector<Corpus> parts(n);
  for (std::size_t s = 0; s < n; ++s) {
    parts[s] = shards_[s]->CloneBaseCorpus();
  }
  Corpus all;
  all.vocab() = parts[0].vocab();
  for (const Corpus& part : parts) {
    for (DocId d = 0; d < part.size(); ++d) all.AddDocument(part.doc(d));
  }
  PhraseExtractor extractor(options_.engine.extractor);
  auto fresh_set =
      std::make_shared<const PhraseDictionary>(extractor.Extract(all));

  // 3. Rebuild every shard against the new set, offline. Epochs continue
  //    monotonically past the predecessors' so epoch-keyed result caches
  //    can never resurrect a pre-refresh entry.
  MiningEngineOptions shard_options = options_.engine;
  shard_options.fixed_phrase_set = fresh_set;
  std::vector<std::shared_ptr<MiningEngine>> fresh(n);
  ParallelOverShards([&](std::size_t s) {
    MiningEngineOptions opts = shard_options;
    if (!options_.persist_path.empty()) {
      opts.persist_path = ShardFilePath(options_.persist_path, s);
    }
    fresh[s] = std::make_shared<MiningEngine>(
        MiningEngine::Build(std::move(parts[s]), opts));
    fresh[s]->AdvanceEpoch(shards_[s]->epoch() + 1);
  });

  // 4. Swap the fleet atomically; in-flight mines finish on the old one.
  {
    std::unique_lock fleet_lock(*shards_mu_);
    shards_ = std::move(fresh);
    global_set_ = std::move(fresh_set);
  }
  std::fill(rebuild_recommended_.begin(), rebuild_recommended_.end(), 0);
  if (!options_.persist_path.empty()) {
    // Shard files were rewritten by the offline builds (new dictionary,
    // new ids); stamp a manifest that matches the swapped fleet.
    persist_status_ = Status::OK();
    for (std::size_t s = 0; s < n && persist_status_.ok(); ++s) {
      persist_status_ = shards_[s]->persist_status();
    }
    if (persist_status_.ok()) {
      persist_status_ = SaveManifestLocked(options_.persist_path);
    }
  }
  NotifyRebuiltLocked();
  return Status::OK();
}

void ShardedEngine::SetDiskBudgetPerShard(uint64_t budget_bytes) {
  options_.disk_budget_per_shard = budget_bytes;
  options_.engine.disk_resident_budget = budget_bytes;
  for (const auto& shard : shards_) {
    shard->SetDiskResidentBudget(budget_bytes);
  }
}

void ShardedEngine::SetTermPopularity(
    std::shared_ptr<const TermPopularity> observed) {
  // Term ids are global across the fleet (identical vocabularies by
  // construction), so every shard re-places from the same snapshot; each
  // shard pins the observed-hot prefix of *its own* built lists under its
  // own budget. Fleet lock shared: the per-shard install synchronizes on
  // the shard's structure lock, and only RefreshDictionary (exclusive)
  // may swap the fleet.
  std::shared_lock fleet_lock(*shards_mu_);
  for (const auto& shard : shards_) {
    shard->SetTermPopularity(observed);
  }
}

std::vector<uint64_t> ShardedEngine::epochs() const {
  std::shared_lock fleet_lock(*shards_mu_);
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->epoch());
  }
  return out;
}

uint64_t ShardedEngine::epoch() const {
  std::shared_lock fleet_lock(*shards_mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->epoch();
  }
  return total;
}

UpdateStats ShardedEngine::update_stats() const {
  if (adopted_ != nullptr) return adopted_->update_stats();
  std::scoped_lock lock(*update_mu_);
  std::shared_lock fleet_lock(*shards_mu_);
  UpdateStats out;
  for (const auto& shard : shards_) {
    const UpdateStats stats = shard->update_stats();
    out.pending_updates += stats.pending_updates;
    out.epoch += shard->epoch();
    if (stats.rebuild_recommended) out.rebuild_recommended = true;
  }
  out.live_docs = locate_.size() - num_dead_;
  out.delta_fraction =
      out.live_docs == 0
          ? (out.pending_updates > 0 ? 1.0 : 0.0)
          : static_cast<double>(out.pending_updates) /
                static_cast<double>(out.live_docs);
  return out;
}

WordListStats ShardedEngine::word_list_stats() const {
  std::shared_lock fleet_lock(*shards_mu_);
  WordListStats out;
  for (const auto& shard : shards_) {
    const WordListStats stats = shard->word_list_stats();
    out.hits += stats.hits;
    out.misses += stats.misses;
    out.entries += stats.entries;
    out.bytes += stats.bytes;
  }
  return out;
}

std::size_t ShardedEngine::num_docs() const {
  std::scoped_lock lock(*update_mu_);
  return locate_.size();
}

}  // namespace phrasemine
