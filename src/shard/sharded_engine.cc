#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/io_util.h"
#include "common/slot_table.h"
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

/// One candidate of one shard's scatter. The phrase id is global -- every
/// shard clones the same frozen phrase set -- which is what lets the
/// gather join candidates with integer keys. Document frequencies never
/// travel with it: the gather reads them from the fleet-wide df table.
struct ShardCandidate {
  PhraseId phrase = kInvalidPhraseId;
  uint32_t freq_subset = 0;  // count-exhaustive scatter
};

/// Everything one shard contributes in the scatter round.
struct ShardScatter {
  std::vector<ShardCandidate> candidates;
  /// List-exhaustive scatter: candidate i's per-term co-occurrence
  /// counts, aligned with the query terms, in row i of this flat
  /// row-major array (codf[i * r + j]); empty on every other path.
  std::vector<uint32_t> codf;
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
  /// Non-OK when the shard's leg aborted (deadline fired inside the
  /// shard's scan or miner, or its disk tier latched an error): the leg's
  /// candidates are a partial view and the merge must abort with this
  /// status.
  Status status;
};

/// Supports one shard computed for the union candidates in the top-k'
/// fill round, flat like the scatter's: entry i (row i of `codf`) belongs
/// to union candidate i. The array a mode does not fill stays empty, and
/// so does every array of a leg that skipped the round.
struct ShardFill {
  std::vector<uint32_t> freq_subset;  // count top-k'
  std::vector<uint32_t> codf;         // list top-k', r per row
  std::size_t subcollection = 0;      // count top-k': |D'_s|
};

/// One merged candidate's summed global supports (its summed per-term
/// co-occurrence counts are row `slot` of the union's flat codf array).
struct GlobalCandidate {
  PhraseId phrase = kInvalidPhraseId;
  uint64_t freq_subset = 0;
};

/// The overlay actually in effect for a snapshot (null when none).
const DeltaIndex* PendingDelta(const EpochDelta& snap) {
  return snap.delta != nullptr && snap.delta->pending_updates() > 0
             ? snap.delta.get()
             : nullptr;
}

/// Cancellation cadence of the exhaustive list scatter leg: it polls the
/// token every kEntriesPerPoll folded list entries (the count leg polls
/// every kCancelDocStride sub-collection documents).
constexpr uint64_t kEntriesPerPoll = 1024;

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
                  Algorithm algorithm, const CancelToken* cancel,
                  const EpochDelta& snap, ShardScatter* out) {
  *out = ShardScatter{};
  out->epoch = snap.epoch;
  out->guarantee = GuaranteeFor(algorithm, PendingDelta(snap) != nullptr);
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    const std::vector<DocId> subset =
        EvalSubCollection(query, engine.inverted());
    out->subcollection = subset.size();
    out->num_docs = engine.forward().num_docs();
    // Dense scratch counters shared with ExactMiner; touched entries are
    // reset on exit, keeping the table all-zero between uses.
    std::vector<uint32_t>& counts = CountTable(engine.dict().size());
    // forward() is the kFull index, so a stored list is already the
    // document's complete phrase set (Phrases() would only copy it).
    const ForwardIndex& forward = engine.forward();
    std::vector<PhraseId> touched;
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (i % kCancelDocStride == 0 && CancelExpired(cancel)) {
        out->status = Status::DeadlineExceeded(
            "deadline expired during sharded scatter");
        break;
      }
      for (PhraseId p : forward.stored(subset[i])) {
        if (counts[p] == 0) touched.push_back(p);
        ++counts[p];
        ++out->entries_read;
      }
    }
    out->candidates.reserve(touched.size());
    for (PhraseId p : touched) {
      out->candidates.push_back(ShardCandidate{p, counts[p]});
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
                 Algorithm algorithm, const CancelToken* cancel,
                 const EpochDelta& snap, ShardScatter* out) {
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
    std::vector<uint32_t>& slot = SlotTable(engine.dict().size());
    // Folds one list entry into its candidate's row; polls the token every
    // kEntriesPerPoll entries and returns false once it fired.
    auto fold = [&](std::size_t term_index, PhraseId phrase,
                    double prob) -> bool {
      if (out->entries_read % kEntriesPerPoll == 0 &&
          CancelExpired(cancel)) {
        out->status = Status::DeadlineExceeded(
            "deadline expired during sharded scatter");
        return false;
      }
      ++out->entries_read;
      const TermId t = query.terms[term_index];
      const uint32_t base_df = engine.dict().df(phrase);
      const uint32_t df_adj = AdjustedShardDf(base_df, phrase, delta);
      const uint32_t codf =
          AdjustedShardCodf(prob, base_df, t, phrase, delta, df_adj);
      if (codf == 0) return true;
      uint32_t& row = slot[phrase];
      if (row == kNoSlot) {
        row = static_cast<uint32_t>(out->candidates.size());
        out->candidates.push_back(ShardCandidate{phrase});
        out->codf.resize(out->codf.size() + r, 0);
      }
      out->codf[row * r + term_index] = codf;
      return true;
    };
    // One pass per term over its full id-ordered SoA list (the engine's
    // cached one when it is at fraction 1), then the delta-only pairs
    // absent from it -- enumerated the way the monolithic SMJ bundle
    // assembly does.
    auto fold_all = [&]() -> bool {
      for (std::size_t i = 0; i < r; ++i) {
        const SharedSoAList list =
            engine.FullIdOrderedListLocked(query.terms[i]);
        const PhraseId* ids = list->ids();
        const double* probs = list->probs();
        for (std::size_t k = 0; k < list->size(); ++k) {
          if (!fold(i, ids[k], probs[k])) return false;
        }
        if (delta == nullptr) continue;
        for (const ListEntry& extra : delta->ExtraIdOrderedEntries(
                 query.terms[i],
                 std::span<const PhraseId>(ids, list->size()))) {
          if (!fold(i, extra.phrase, extra.prob)) return false;
        }
      }
      return true;
    };
    (void)fold_all();  // a cancelled fold left its status in *out
    for (const ShardCandidate& c : out->candidates) slot[c.phrase] = kNoSlot;
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
      out->candidates.push_back(ShardCandidate{mp.phrase});
    }
  });
  return true;
}

/// Count top-k' fill: every union candidate's sub-collection frequency
/// via one forward scan -- the support the gather sums into the global
/// Eq. 1 numerator. The scan polls `cancel` every kCancelDocStride
/// documents and stops once it fired; the caller's post-fill check then
/// discards the partial counts.
bool CountFill(MiningEngine& engine, const Query& query,
               std::span<const GlobalCandidate> cands,
               const CancelToken* cancel, const EpochDelta& snap,
               ShardFill* out) {
  out->freq_subset.assign(cands.size(), 0);
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    const std::size_t set_size = engine.dict().size();
    std::vector<uint32_t>& slot = SlotTable(set_size);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].phrase < set_size) {
        slot[cands[i].phrase] = static_cast<uint32_t>(i);
      }
    }
    const std::vector<DocId> subset =
        EvalSubCollection(query, engine.inverted());
    out->subcollection = subset.size();
    for (std::size_t k = 0; k < subset.size(); ++k) {
      if (k % kCancelDocStride == 0) {
        if (failpoint::Enabled()) (void)PM_FAILPOINT("shard.fill.poll");
        if (CancelExpired(cancel)) break;
      }
      // kFull forward index: the stored list is the full phrase set.
      for (PhraseId p : engine.forward().stored(subset[k])) {
        const uint32_t i = slot[p];
        if (i != kNoSlot) ++out->freq_subset[i];
      }
    }
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].phrase < set_size) slot[cands[i].phrase] = kNoSlot;
    }
    return true;
  });
}

/// List top-k' fill: every union candidate's delta-corrected per-term
/// co-occurrence counts, via one pass over each term's word list.
bool ListFill(MiningEngine& engine, const Query& query,
              std::span<const GlobalCandidate> cands, const EpochDelta& snap,
              ShardFill* out) {
  const std::size_t r = query.terms.size();
  engine.EnsureIdOrderedLists(query.terms);
  const DeltaIndex* delta = PendingDelta(snap);
  out->codf.assign(cands.size() * r, 0);
  return engine.WithSharedStructures([&]() -> bool {
    if (engine.list_generation() != snap.generation) return false;
    for (TermId t : query.terms) {
      if (!engine.word_lists().Has(t)) return false;
    }
    const std::size_t set_size = engine.dict().size();

    // One galloping pass per term over its full id-ordered SoA list
    // gathers every candidate's stored probability (0.0 when absent);
    // AdjustedShardCodf on a 0.0 base recovers the delta-only count of a
    // candidate absent from the base list.
    std::vector<std::pair<PhraseId, std::size_t>> probes;
    probes.reserve(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].phrase >= set_size) continue;
      probes.emplace_back(cands[i].phrase, i);
    }
    std::sort(probes.begin(), probes.end());
    std::vector<PhraseId> probe_ids(probes.size());
    std::vector<uint32_t> base_df(probes.size());
    std::vector<uint32_t> df_adj(probes.size());
    for (std::size_t m = 0; m < probes.size(); ++m) {
      const PhraseId p = probes[m].first;
      probe_ids[m] = p;
      base_df[m] = engine.dict().df(p);
      df_adj[m] = AdjustedShardDf(base_df[m], p, delta);
    }
    std::vector<double> gathered(probes.size());
    for (std::size_t j = 0; j < r; ++j) {
      const TermId t = query.terms[j];
      kernels::GatherProbes(*engine.FullIdOrderedListLocked(t), probe_ids,
                            gathered.data());
      for (std::size_t m = 0; m < probes.size(); ++m) {
        const auto [p, i] = probes[m];
        out->codf[i * r + j] = AdjustedShardCodf(gathered[m], base_df[m], t,
                                                 p, delta, df_adj[m]);
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
  // One countdown per round; a leg's task captures two words, small
  // enough for std::function to hold without a heap allocation.
  std::latch done(static_cast<std::ptrdiff_t>(n));
  auto leg = [&fn, &done](std::size_t s) {
    fn(s);
    done.count_down();
  };
  for (std::size_t s = 0; s < n; ++s) {
    // TrySubmit so a saturated pool degrades to inline execution on the
    // caller's thread instead of risking submitter pile-ups under heavy
    // concurrent fan-out.
    if (!pool_->TrySubmit([&leg, s] { leg(s); })) leg(s);
  }
  done.wait();
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

std::shared_ptr<const ShardedEngine::DfTable> ShardedEngine::DfTableFor(
    std::span<const EpochDelta> snaps) const {
  std::shared_ptr<const DfTable> table;
  {
    std::scoped_lock lock(df_table_->mu);
    table = df_table_->table;
  }
  if (table != nullptr &&
      std::equal(table->versions.begin(), table->versions.end(),
                 snaps.begin(), snaps.end(),
                 [](uint64_t version, const EpochDelta& snap) {
                   return version == snap.structure_version;
                 })) {
    return table;
  }
  // Only a rebuild, a reload or a dictionary refresh moves a version, so
  // this O(shards x |set|) sum runs once per structure change. Each
  // shard's dfs are read under its shared structure lock against the
  // snapshot's version: the table never sums two versions of one shard.
  auto fresh = std::make_shared<DfTable>();
  fresh->versions.resize(snaps.size());
  fresh->df.assign(global_set_->size(), 0);
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const MiningEngine& engine = *shards_[s];
    const bool current = engine.WithSharedStructures([&] {
      if (engine.structure_version() != snaps[s].structure_version) {
        return false;
      }
      const PhraseDictionary& dict = engine.dict();
      const std::size_t size = std::min(dict.size(), fresh->df.size());
      for (PhraseId p = 0; p < size; ++p) fresh->df[p] += dict.df(p);
      return true;
    });
    if (!current) return nullptr;
    fresh->versions[s] = snaps[s].structure_version;
  }
  {
    std::scoped_lock lock(df_table_->mu);
    df_table_->table = fresh;
  }
  return fresh;
}

std::shared_ptr<const std::vector<uint32_t>> ShardedEngine::base_df_table()
    const {
  if (adopted_ != nullptr) return nullptr;
  std::shared_lock fleet_lock(*shards_mu_);
  for (;;) {
    std::vector<EpochDelta> snaps(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      snaps[s] = shards_[s]->delta_snapshot();
    }
    std::shared_ptr<const DfTable> table = DfTableFor(snaps);
    if (table != nullptr) {
      return std::shared_ptr<const std::vector<uint32_t>>(table, &table->df);
    }
    std::this_thread::yield();
  }
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

    // The df table the gather divides by, pinned to this attempt's
    // snapshots: null means a shard rebuilt after its snapshot was taken.
    const std::shared_ptr<const DfTable> df_table = DfTableFor(snaps);
    if (df_table == nullptr) {
      std::this_thread::yield();  // let the rebuild finish before retrying
      continue;
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
          ok = CountScatter(*shards_[s], query, algorithm, options.cancel,
                            snaps[s], &scatter[s]);
          break;
        case MergeMode::kListExhaustive:
          ok = ListScatter(*shards_[s], query, algorithm, options.cancel,
                           snaps[s], &scatter[s]);
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
    // Ids beyond the set can only come from a stale pre-refresh mine;
    // they are dropped (the shard would re-report under the new set
    // anyway).
    const std::size_t set_size = df_table->df.size();
    std::vector<uint32_t>& slot_of = SlotTable(set_size);
    std::vector<GlobalCandidate> cands;
    for (const ShardScatter& shard : scatter) {
      for (const ShardCandidate& sc : shard.candidates) {
        if (sc.phrase >= set_size || slot_of[sc.phrase] != kNoSlot) continue;
        slot_of[sc.phrase] = static_cast<uint32_t>(cands.size());
        cands.push_back(GlobalCandidate{sc.phrase, 0});
      }
    }
    const std::size_t num_cands = cands.size();
    // Summed per-term co-occurrence counts, row-major: candidate i's row
    // is cand_codf[i * r, (i + 1) * r) (list modes only).
    std::vector<uint32_t> cand_codf(IsCountMode(mode) ? 0 : num_cands * r, 0);
    if (!IsTopKMode(mode)) {
      // An exhaustive scatter carries every shard's complete numerator
      // supports; only the denominators below come from elsewhere.
      for (const ShardScatter& shard : scatter) {
        for (std::size_t c = 0; c < shard.candidates.size(); ++c) {
          const ShardCandidate& sc = shard.candidates[c];
          if (sc.phrase >= set_size) continue;
          const std::size_t slot = slot_of[sc.phrase];
          cands[slot].freq_subset += sc.freq_subset;
          if (IsCountMode(mode)) continue;
          const uint32_t* row = &shard.codf[c * r];
          uint32_t* sum = &cand_codf[slot * r];
          for (std::size_t j = 0; j < r; ++j) sum[j] += row[j];
        }
      }
    }
    // Restore the scratch table's all-kNoSlot invariant (also on the
    // stale-retry paths below, which re-enter this block).
    for (const GlobalCandidate& gc : cands) slot_of[gc.phrase] = kNoSlot;

    // --- Fill (top-k' only) --------------------------------------------------
    // A top-k' scatter discovered identities only: every shard computes
    // its numerator supports for the whole union. An exhaustive scatter
    // already holds them all, so those merges skip the round.
    std::vector<ShardFill> fill(n);
    std::size_t fill_slots = 0;
    if (IsTopKMode(mode) && num_cands != 0) {
      const double fill_start = trace != nullptr ? watch.ElapsedMillis() : 0.0;
      TraceSpan* fill_span = AddSpan(trace, "fill");
      std::vector<TraceSpan*> fill_shard_spans(n, nullptr);
      for (std::size_t s = 0; s < n && fill_span != nullptr; ++s) {
        fill_shard_spans[s] = AddSpan(fill_span, "shard " + std::to_string(s));
      }
      ParallelOverShards([&](std::size_t s) {
        SpanTimer span_timer(fill_shard_spans[s]);
        // Sibling aborted: leave this leg's fill empty (it sums as zero
        // supports; the abort check below discards the merge anyway).
        if (CancelRequested(options.cancel)) return;
        const bool ok =
            IsCountMode(mode)
                ? CountFill(*shards_[s], query, cands, options.cancel,
                            snaps[s], &fill[s])
                : ListFill(*shards_[s], query, cands, snaps[s], &fill[s]);
        if (!ok) stale.store(true, std::memory_order_relaxed);
      });
      if (stale.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
        continue;
      }
      for (const ShardFill& f : fill) {
        for (std::size_t i = 0; i < f.freq_subset.size(); ++i) {
          cands[i].freq_subset += f.freq_subset[i];
        }
        for (std::size_t x = 0; x < f.codf.size(); ++x) {
          cand_codf[x] += f.codf[x];
        }
      }
      fill_slots = num_cands * n;
      if (fill_span != nullptr) {
        fill_span->wall_ms = watch.ElapsedMillis() - fill_start;
        AddCounter(fill_span, "fill_slots", static_cast<double>(fill_slots));
      }
    }
    // A fill leg that skipped on a latched token or stopped its count scan
    // early left partial supports, so one more full check bounds the
    // gather: supports merged from a partially-cancelled fill must never
    // rank.
    if (CancelExpired(options.cancel)) {
      return aborted(
          Status::DeadlineExceeded("deadline expired during sharded fill"));
    }
    const double gather_start = trace != nullptr ? watch.ElapsedMillis() : 0.0;

    // --- Gather: global scores from summed supports --------------------------
    // |D| is always scatter-complete; |D'| is too on every path except
    // the count top-k' one, whose sub-collections are counted in the fill.
    std::size_t total_docs = 0;
    std::size_t total_subcollection = 0;
    for (const ShardScatter& sh : scatter) total_docs += sh.num_docs;
    for (std::size_t s = 0; s < n; ++s) {
      total_subcollection += IsTopKMode(mode) && IsCountMode(mode)
                                 ? fill[s].subcollection
                                 : scatter[s].subcollection;
    }

    // Denominators. Count methods mine the base corpus, so their df is
    // the table's base df. List methods see each shard's overlay: the
    // monolithic df is sum_s max(0, df_s(p) + DfDelta_s(p)), and every
    // clamp there is a no-op -- df_s(p) + DfDelta_s(p) counts the shard's
    // live documents containing p, never negative -- so it equals the
    // table's sum plus the pending overlays' df deltas.
    std::vector<const DeltaIndex*> overlays;
    if (!IsCountMode(mode)) {
      for (const EpochDelta& snap : snaps) {
        if (const DeltaIndex* delta = PendingDelta(snap)) {
          overlays.push_back(delta);
        }
      }
    }

    struct Ranked {
      PhraseId phrase;
      double score;
      double interestingness;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(num_cands);
    std::vector<double> probs(r);
    for (std::size_t i = 0; i < num_cands; ++i) {
      const GlobalCandidate& gc = cands[i];
      int64_t df = df_table->df[gc.phrase];
      for (const DeltaIndex* delta : overlays) df += delta->DfDelta(gc.phrase);
      double score;
      if (IsCountMode(mode)) {
        if (gc.freq_subset == 0) continue;
        score = EvaluateInterestingness(
            options.measure, static_cast<uint32_t>(gc.freq_subset),
            static_cast<uint32_t>(df), total_subcollection, total_docs);
        ranked.push_back(Ranked{gc.phrase, score, score});
        continue;
      }
      const uint32_t* codf = &cand_codf[i * r];
      bool all_present = true;
      for (std::size_t j = 0; j < r; ++j) {
        if (codf[j] == 0) all_present = false;
        // The monolithic list stores count / df in double; the same
        // division over the summed integers reproduces it bitwise.
        probs[j] = df == 0 ? 0.0
                           : static_cast<double>(codf[j]) /
                                 static_cast<double>(df);
      }
      if (query.op == QueryOperator::kAnd) {
        if (!all_present) continue;
        score = AndScore(probs);
        if (score == kMinusInfinity) continue;
      } else {
        score = OrScore(probs, options.or_order);
        if (score <= 0.0) continue;
      }
      ranked.push_back(
          Ranked{gc.phrase, score, ScoreToInterestingness(score, query.op)});
    }
    // Ties order by smaller global PhraseId -- the monolithic collector's
    // tie-break, now meaningful fleet-wide thanks to the shared set. That
    // makes the order strict and total, so the partial sort's top k is
    // exactly a full sort's.
    const std::size_t keep = std::min(options.k, ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                      ranked.end(), [](const Ranked& a, const Ranked& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.phrase < b.phrase;
                      });
    ranked.resize(keep);
    if (trace != nullptr) {
      TraceSpan* gather = AddSpan(trace, "gather");
      gather->wall_ms = watch.ElapsedMillis() - gather_start;
      AddCounter(gather, "results", static_cast<double>(ranked.size()));
    }

    // --- Assemble ------------------------------------------------------------
    ShardedMineResult out;
    out.candidates = num_cands;
    out.fill_slots = fill_slots;
    out.exact_merge = !IsTopKMode(mode);
    out.result.phrases.reserve(ranked.size());
    out.texts.reserve(ranked.size());
    const double materialize_start =
        trace != nullptr ? watch.ElapsedMillis() : 0.0;
    shards_[0]->WithSharedStructures([&] {
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        const PhraseId id = ranked[i].phrase;
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
    out.result.peak_candidates = num_cands;
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
      AddCounter(trace, "candidates", static_cast<double>(num_cands));
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
      ev.shards[s] = {snap.epoch, snap.generation, snap.structure_version,
                      snap.delta};
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
    ev.shards[s] = {snap.epoch, snap.generation, snap.structure_version,
                    snap.delta};
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
