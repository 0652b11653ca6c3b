#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"

namespace phrasemine {

namespace {

/// File name of an engine persisted into a directory.
constexpr const char* kIndexFileName = "engine.pmidx";

/// Serializes one structure into a detached payload buffer.
template <typename Fn>
std::vector<uint8_t> SerializeSection(Fn&& serialize) {
  BinaryWriter writer;
  serialize(&writer);
  return writer.TakeBuffer();
}

/// Borrowed reader over a required section; missing sections are
/// Corruption (an engine file always carries all eight).
Status SectionReader(const IndexFile& file, IndexSection type,
                     std::optional<BinaryReader>* out) {
  if (!file.has_section(type)) {
    return Status::Corruption("index file missing engine section " +
                              std::to_string(static_cast<uint32_t>(type)) +
                              ": " + file.path());
  }
  out->emplace(file.section(type));
  return Status::OK();
}

/// Clones a fixed phrase set (identical ids, parents and token
/// sequences -- extraction registers parents before children, so the
/// sequential AddPhrase replay is valid) and recounts document
/// frequencies set-wise over `corpus`. Phrases absent from the corpus
/// keep df 0.
PhraseDictionary CloneSetWithCorpusDfs(const PhraseDictionary& set,
                                       const Corpus& corpus) {
  PhraseDictionary dict;
  for (PhraseId p = 0; p < set.size(); ++p) {
    const PhraseInfo& info = set.info(p);
    dict.AddPhrase(info.tokens, info.parent, 0);
  }
  for (DocId d = 0; d < corpus.size(); ++d) {
    for (PhraseId p : CollectDocPhrases(corpus.doc(d).tokens, dict)) {
      dict.set_df(p, dict.df(p) + 1);
    }
  }
  return dict;
}

/// sum_p df(p) / |D|: each phrase contributes one entry to the forward
/// list of every document it occurs in.
double AvgDocPhrases(const PhraseDictionary& dict, const Corpus& corpus) {
  uint64_t total_df = 0;
  for (PhraseId p = 0; p < dict.size(); ++p) total_df += dict.df(p);
  return corpus.size() == 0 ? 0.0
                            : static_cast<double>(total_df) /
                                  static_cast<double>(corpus.size());
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kExact:
      return "Exact";
    case Algorithm::kGm:
      return "GM";
    case Algorithm::kSimitsis:
      return "Simitsis";
    case Algorithm::kNra:
      return "NRA";
    case Algorithm::kNraDisk:
      return "NRA-disk";
    case Algorithm::kSmj:
      return "SMJ";
  }
  return "?";
}

const char* UpdateGuaranteeName(UpdateGuarantee guarantee) {
  switch (guarantee) {
    case UpdateGuarantee::kFresh:
      return "fresh";
    case UpdateGuarantee::kExactUnderDelta:
      return "exact-under-delta";
    case UpdateGuarantee::kApproximateUnderDelta:
      return "approximate-under-delta";
    case UpdateGuarantee::kStale:
      return "stale";
  }
  return "?";
}

UpdateGuarantee GuaranteeFor(Algorithm algorithm, bool delta_applied,
                             bool smj_full_lists) {
  if (!delta_applied) return UpdateGuarantee::kFresh;
  switch (algorithm) {
    case Algorithm::kSmj:
      return smj_full_lists ? UpdateGuarantee::kExactUnderDelta
                            : UpdateGuarantee::kApproximateUnderDelta;
    case Algorithm::kNra:
    case Algorithm::kNraDisk:
      return UpdateGuarantee::kApproximateUnderDelta;
    case Algorithm::kExact:
    case Algorithm::kGm:
    case Algorithm::kSimitsis:
      return UpdateGuarantee::kStale;
  }
  return UpdateGuarantee::kFresh;
}

MiningEngine MiningEngine::Build(Corpus corpus, Options options) {
  MiningEngine engine;
  engine.options_ = options;
  engine.corpus_ = std::move(corpus);
  if (options.fixed_phrase_set != nullptr) {
    engine.dict_ =
        CloneSetWithCorpusDfs(*options.fixed_phrase_set, engine.corpus_);
  } else {
    PhraseExtractor extractor(options.extractor);
    engine.dict_ = extractor.Extract(engine.corpus_);
  }
  engine.inverted_ = InvertedIndex::Build(engine.corpus_);
  engine.forward_full_ =
      ForwardIndex::Build(engine.corpus_, engine.dict_, ForwardStorage::kFull);
  engine.forward_compressed_ = ForwardIndex::Build(
      engine.corpus_, engine.dict_, ForwardStorage::kPrefixCompressed);
  engine.phrase_file_ =
      PhraseListFile::Build(engine.dict_, engine.corpus_.vocab());
  engine.avg_doc_phrases_ = AvgDocPhrases(engine.dict_, engine.corpus_);
  engine.word_lists_ = std::make_unique<WordScoreLists>();
  engine.smj_fraction_ = options.default_smj_fraction;
  if (!options.persist_path.empty()) {
    engine.persist_status_ = engine.SaveToFile(options.persist_path);
  }
  return engine;
}

Status MiningEngine::SaveToFile(const std::string& path) const {
  std::shared_lock lists_lock(sync_->lists_mu);
  IndexFileWriter writer;
  {
    // Shared against ingest-time interning of unseen terms.
    std::shared_lock vocab_lock(sync_->vocab_mu);
    writer.AddSection(IndexSection::kVocabulary, SerializeSection([&](
        BinaryWriter* w) { corpus_.vocab().Serialize(w); }));
  }
  writer.AddSection(IndexSection::kCorpusDocs, SerializeSection([&](
      BinaryWriter* w) { corpus_.SerializeDocs(w); }));
  writer.AddSection(IndexSection::kPhraseDictionary, SerializeSection([&](
      BinaryWriter* w) { dict_.Serialize(w); }));
  writer.AddSection(IndexSection::kInvertedIndex, SerializeSection([&](
      BinaryWriter* w) { inverted_.Serialize(w); }));
  writer.AddSection(IndexSection::kForwardIndexFull, SerializeSection([&](
      BinaryWriter* w) { forward_full_.Serialize(w); }));
  writer.AddSection(IndexSection::kForwardIndexCompressed, SerializeSection([&](
      BinaryWriter* w) { forward_compressed_.Serialize(w); }));
  writer.AddSection(IndexSection::kPhraseListFile, SerializeSection([&](
      BinaryWriter* w) { phrase_file_.Serialize(w); }));
  writer.AddSection(IndexSection::kWordScoreLists, SerializeSection([&](
      BinaryWriter* w) { word_lists_->Serialize(w); }));
  return writer.WriteTo(path);
}

Result<MiningEngine> MiningEngine::LoadFromFile(const std::string& path,
                                                Options options) {
  Result<IndexFile> file_or = IndexFile::Open(path);
  if (!file_or.ok()) return file_or.status();
  auto file = std::make_unique<IndexFile>(std::move(file_or.value()));

  MiningEngine engine;
  engine.options_ = options;
  Status s;
  std::optional<BinaryReader> reader;
  {
    if (!(s = SectionReader(*file, IndexSection::kVocabulary, &reader)).ok())
      return s;
    Result<Vocabulary> part = Vocabulary::Deserialize(&*reader);
    if (!part.ok()) return part.status();
    engine.corpus_.SetVocab(std::move(part.value()));
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kCorpusDocs, &reader)).ok())
      return s;
    if (!(s = Corpus::DeserializeDocs(&*reader, &engine.corpus_)).ok())
      return s;
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kPhraseDictionary, &reader))
             .ok())
      return s;
    Result<PhraseDictionary> part = PhraseDictionary::Deserialize(&*reader);
    if (!part.ok()) return part.status();
    engine.dict_ = std::move(part.value());
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kInvertedIndex, &reader)).ok())
      return s;
    Result<InvertedIndex> part = InvertedIndex::Deserialize(&*reader);
    if (!part.ok()) return part.status();
    engine.inverted_ = std::move(part.value());
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kForwardIndexFull, &reader))
             .ok())
      return s;
    Result<ForwardIndex> part = ForwardIndex::Deserialize(&*reader);
    if (!part.ok()) return part.status();
    // Readers of forward() take a stored list as the document's whole
    // phrase set, which only a kFull index guarantees.
    if (part.value().storage() != ForwardStorage::kFull) {
      return Status::Corruption("full forward index section is compressed");
    }
    engine.forward_full_ = std::move(part.value());
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kForwardIndexCompressed,
                            &reader))
             .ok())
      return s;
    Result<ForwardIndex> part = ForwardIndex::Deserialize(&*reader);
    if (!part.ok()) return part.status();
    engine.forward_compressed_ = std::move(part.value());
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kPhraseListFile, &reader))
             .ok())
      return s;
    Result<PhraseListFile> part = PhraseListFile::Deserialize(&*reader);
    if (!part.ok()) return part.status();
    engine.phrase_file_ = std::move(part.value());
  }
  {
    if (!(s = SectionReader(*file, IndexSection::kWordScoreLists, &reader))
             .ok())
      return s;
    WordScoreLists::SerializedLayout local;
    Result<WordScoreLists> part =
        WordScoreLists::Deserialize(&*reader, &local);
    if (!part.ok()) return part.status();
    engine.word_lists_ =
        std::make_unique<WordScoreLists>(std::move(part.value()));
    // Rebase the captured entry runs from section-local to absolute file
    // offsets: these are the byte ranges the measured disk tier serves.
    const uint64_t base = file->section_offset(IndexSection::kWordScoreLists);
    for (const auto& [term, run] : local.entry_runs) {
      engine.mapped_layout_.entry_runs[term] = {base + run.first, run.second};
    }
  }
  engine.mapped_layout_.phrase_slots_offset =
      file->section_offset(IndexSection::kPhraseListFile) +
      PhraseListFile::kSerializedSlotsOffset;
  engine.index_file_ = std::move(file);
  engine.avg_doc_phrases_ = AvgDocPhrases(engine.dict_, engine.corpus_);
  engine.smj_fraction_ = options.default_smj_fraction;
  return engine;
}

Status MiningEngine::SaveToDirectory(const std::string& dir) const {
  return SaveToFile(dir + "/" + kIndexFileName);
}

Result<MiningEngine> MiningEngine::LoadFromDirectory(const std::string& dir,
                                                     Options options) {
  return LoadFromFile(dir + "/" + kIndexFileName, options);
}

Result<Query> MiningEngine::ParseQuery(std::string_view text,
                                       QueryOperator op) const {
  // Shared against ingest-time interning of unseen terms.
  std::shared_lock vocab_lock(sync_->vocab_mu);
  return Query::Parse(text, op, corpus_.vocab());
}

const PhrasePostingIndex& MiningEngine::postings() {
  std::shared_lock lists_lock(sync_->lists_mu);
  return PostingsLocked();
}

const PhrasePostingIndex& MiningEngine::PostingsLocked() {
  std::scoped_lock lock(sync_->postings_mu);
  if (postings_ == nullptr) {
    postings_ = std::make_unique<PhrasePostingIndex>(
        PhrasePostingIndex::Build(forward_full_, dict_));
  }
  return *postings_;
}

void MiningEngine::EnsureWordLists(std::span<const TermId> terms) {
  // Retried when a rebuild swaps the base structures mid-build: lists
  // built from a previous generation must not be merged into the new one.
  for (;;) {
    uint64_t generation;
    std::vector<TermId> missing;
    {
      std::shared_lock lock(sync_->lists_mu);
      generation = generation_;
      for (TermId t : terms) {
        if (!word_lists_->Has(t)) missing.push_back(t);
      }
    }
    if (missing.empty()) {
      sync_->list_hits.fetch_add(terms.size(), std::memory_order_relaxed);
      return;
    }
    // Build under the shared lock so concurrent mines keep running but a
    // rebuild cannot swap the source indexes away mid-build; two threads
    // racing on the same term both build it, and Merge keeps the first
    // copy (lists for a term are identical by construction).
    WordScoreLists built;
    {
      std::shared_lock lock(sync_->lists_mu);
      if (generation_ != generation) continue;
      built = WordScoreLists::Build(inverted_, forward_full_, dict_, missing);
    }
    {
      std::unique_lock lock(sync_->lists_mu);
      if (generation_ != generation) continue;
      const std::size_t before = word_lists_->num_terms();
      word_lists_->Merge(std::move(built));
      if (word_lists_->num_terms() != before) InvalidateDerivedLists();
      sync_->list_hits.fetch_add(terms.size() - missing.size(),
                                 std::memory_order_relaxed);
      sync_->list_misses.fetch_add(missing.size(), std::memory_order_relaxed);
      return;
    }
  }
}

WordListStats MiningEngine::word_list_stats() const {
  WordListStats stats;
  stats.hits = sync_->list_hits.load(std::memory_order_relaxed);
  stats.misses = sync_->list_misses.load(std::memory_order_relaxed);
  std::shared_lock lock(sync_->lists_mu);
  stats.entries = word_lists_->num_terms();
  stats.bytes = word_lists_->InMemoryBytes();
  if (id_lists_ != nullptr) stats.bytes += id_lists_->MemoryBytes();
  return stats;
}

void MiningEngine::EnsureWordListsFor(std::span<const Query> queries) {
  std::vector<TermId> terms;
  for (const Query& q : queries) {
    terms.insert(terms.end(), q.terms.begin(), q.terms.end());
  }
  EnsureWordLists(terms);
}

void MiningEngine::EnsureIdOrderedLists(std::span<const TermId> terms) {
  // Per term, like the score lists: only the terms SMJ actually mines pay
  // for an id-ordered SoA list. Retried when a rebuild or a fraction
  // change lands between the build and the insert.
  for (;;) {
    EnsureWordLists(terms);
    uint64_t generation;
    double fraction;
    std::vector<std::pair<TermId, SharedSoAList>> built;
    {
      // The common case -- every term already present -- stays on the
      // shared lock: the sharded scatter/fill rounds and the subscription
      // rescore call this per shard, and an exclusive lock would
      // serialize them against every concurrent mine.
      std::shared_lock lock(sync_->lists_mu);
      generation = generation_;
      fraction = smj_fraction_;
      for (TermId t : terms) {
        if (id_lists_ != nullptr && id_lists_->Has(t)) continue;
        if (!word_lists_->Has(t)) continue;  // a rebuild raced: caller rechecks
        built.emplace_back(t, WordIdOrderedLists::PackPrefix(
                                  word_lists_->list(t), fraction));
      }
    }
    if (built.empty()) return;
    std::unique_lock lock(sync_->lists_mu);
    if (generation_ != generation || smj_fraction_ != fraction) continue;
    if (id_lists_ == nullptr) {
      id_lists_ = std::make_unique<WordIdOrderedLists>(fraction);
    }
    for (auto& [t, list] : built) id_lists_->Insert(t, std::move(list));
    return;
  }
}

SharedSoAList MiningEngine::FullIdOrderedListLocked(TermId term) const {
  if (id_lists_ != nullptr && id_lists_->fraction() >= 1.0) {
    if (SharedSoAList cached = id_lists_->shared_soa(term)) return cached;
  }
  if (!word_lists_->Has(term)) return nullptr;
  return WordIdOrderedLists::PackPrefix(word_lists_->list(term), 1.0);
}

void MiningEngine::InvalidateDerivedLists() {
  // Id-ordered lists are per term and a term's score list never changes
  // within a generation, so a merge of new terms leaves them valid; the
  // disk tier's placement covers the built-list set and must re-place.
  disk_lists_.reset();
}

DiskResidentLists& MiningEngine::EnsureDiskTierLocked() {
  if (disk_lists_ == nullptr) {
    // Loaded engines back the tier with the mapped index file: reads
    // fault the structures' real bytes and the stats are measured.
    // Built-in-memory engines fall back to the modeled SimulatedDisk.
    std::unique_ptr<DiskBackend> device;
    if (index_file_ != nullptr) {
      device = std::make_unique<MappedDisk>(index_file_.get());
    }
    disk_lists_ = std::make_unique<DiskResidentLists>(
        *word_lists_, phrase_file_, inverted_,
        DiskTierOptions{options_.disk, options_.disk_resident_budget,
                        term_popularity_},
        std::move(device), mapped_layout_);
  }
  return *disk_lists_;
}

void MiningEngine::SetSmjFraction(double fraction) {
  std::unique_lock lock(sync_->lists_mu);
  smj_fraction_ = fraction;
  id_lists_.reset();
}

void MiningEngine::SetDiskResidentBudget(uint64_t budget_bytes) {
  std::unique_lock lock(sync_->lists_mu);
  options_.disk_resident_budget = budget_bytes;
  disk_lists_.reset();  // next kNraDisk mine re-places under the new budget
}

void MiningEngine::SetTermPopularity(
    std::shared_ptr<const TermPopularity> observed) {
  // Exclusive structure lock: in-flight mines hold it shared for their
  // whole run, so the install (and the tier teardown below) can never
  // pull a DiskResidentLists out from under a running query -- the next
  // kNraDisk mine lazily re-places under the new hotness order.
  std::unique_lock lock(sync_->lists_mu);
  term_popularity_ = std::move(observed);
  ++popularity_version_;
  disk_lists_.reset();
}

std::shared_ptr<const std::unordered_set<TermId>>
MiningEngine::ResidentSetLocked() const {
  // Key fields are stable under the caller's shared structure lock
  // (generation_ writers hold lists_mu exclusively; word-list merges and
  // budget changes do too); resident_mu only serializes memo updates
  // between concurrent planners.
  const uint64_t budget = options_.disk_resident_budget;
  const std::size_t terms = word_lists_->num_terms();
  std::scoped_lock memo_lock(sync_->resident_mu);
  if (resident_memo_ == nullptr || resident_memo_generation_ != generation_ ||
      resident_memo_terms_ != terms || resident_memo_budget_ != budget ||
      resident_memo_popularity_ != popularity_version_) {
    resident_memo_ = std::make_shared<const std::unordered_set<TermId>>(
        DiskResidentLists::ResidentSet(*word_lists_, inverted_, budget,
                                       term_popularity_.get()));
    resident_memo_generation_ = generation_;
    resident_memo_terms_ = terms;
    resident_memo_budget_ = budget;
    resident_memo_popularity_ = popularity_version_;
  }
  return resident_memo_;
}

MineResult MiningEngine::Mine(const Query& query, Algorithm algorithm,
                              const MineOptions& options) {
  const bool needs_lists = algorithm == Algorithm::kNra ||
                           algorithm == Algorithm::kNraDisk ||
                           algorithm == Algorithm::kSmj;
  // Acquire the shared structure lock for the whole mine, (re)building the
  // inputs the algorithm needs first. The loop restarts when a concurrent
  // rebuild swaps the structures between the build step and the lock.
  std::shared_lock lock(sync_->lists_mu, std::defer_lock);
  for (;;) {
    if (needs_lists) EnsureWordLists(query.terms);
    lock.lock();
    if (needs_lists) {
      bool have_all = true;
      for (TermId t : query.terms) {
        if (!word_lists_->Has(t)) {
          have_all = false;
          break;
        }
      }
      if (!have_all) {
        lock.unlock();
        continue;
      }
      if (algorithm == Algorithm::kSmj) {
        bool have_ids = id_lists_ != nullptr;
        for (TermId t : query.terms) {
          have_ids = have_ids && id_lists_->Has(t);
        }
        if (!have_ids) {
          lock.unlock();
          EnsureIdOrderedLists(query.terms);
          continue;  // Revalidate everything with the shared lock back.
        }
      }
    }
    break;
  }

  // Fetched under the shared lock, so the overlay is consistent with the
  // structures this mine reads (a rebuild swap cannot interleave). When
  // the caller did not bring its own overlay, pending updates are applied
  // automatically.
  const EpochDelta snap = delta_snapshot();
  MineOptions effective = options;
  const bool caller_delta = options.delta != nullptr;
  if (!caller_delta && snap.delta != nullptr &&
      snap.delta->pending_updates() > 0) {
    effective.delta = snap.delta.get();
  }

  MineResult result;
  switch (algorithm) {
    case Algorithm::kExact: {
      std::scoped_lock miner_lock(sync_->exact_mu);
      if (exact_ == nullptr) {
        exact_ = std::make_unique<ExactMiner>(inverted_, forward_full_, dict_);
      }
      result = exact_->Mine(query, effective);
      break;
    }
    case Algorithm::kGm: {
      std::scoped_lock miner_lock(sync_->gm_mu);
      if (gm_ == nullptr) {
        gm_ = std::make_unique<GmMiner>(inverted_, forward_compressed_, dict_);
      }
      result = gm_->Mine(query, effective);
      break;
    }
    case Algorithm::kSimitsis: {
      const PhrasePostingIndex& phrase_postings = PostingsLocked();
      std::scoped_lock miner_lock(sync_->simitsis_mu);
      if (simitsis_ == nullptr) {
        simitsis_ = std::make_unique<SimitsisMiner>(inverted_, phrase_postings,
                                                    dict_, corpus_.size());
      }
      result = simitsis_->Mine(query, effective);
      break;
    }
    case Algorithm::kNra: {
      NraMiner miner(*word_lists_, dict_);
      result = miner.Mine(query, effective);
      break;
    }
    case Algorithm::kNraDisk: {
      // disk_mu serializes the whole mine (the device accumulates charged
      // or measured I/O); the shared structure lock keeps a concurrent
      // merge or rebuild from resetting disk_lists_ mid-mine.
      std::scoped_lock disk_lock(sync_->disk_mu);
      NraMiner miner(&EnsureDiskTierLocked(), dict_);
      result = miner.Mine(query, effective);
      break;
    }
    case Algorithm::kSmj: {
      if (effective.delta != nullptr) {
        // Per-query bundle: each stored list overlaid with the phrases
        // whose co-occurrence with the term became positive purely through
        // updates -- without them SMJ could not stay exact (Section 4.5.1).
        WordIdOrderedLists bundle(smj_fraction_);
        for (TermId t : query.terms) {
          bundle.Insert(t, effective.delta->OverlayIdOrdered(
                               t, id_lists_->shared_soa(t)));
        }
        SmjMiner miner(bundle, dict_);
        result = miner.Mine(query, effective);
      } else {
        SmjMiner miner(*id_lists_, dict_);
        result = miner.Mine(query, effective);
      }
      if (options_.disk_backed) {
        // Disk-backed SMJ streams each spilled list through the tier as
        // one sequential scan of its construction prefix (Section 4.4.1:
        // SMJ reads whole id-ordered lists): charge (or measure) that
        // I/O on the shared device. Resident lists stay free, mirroring
        // the NRA-disk protocol, and the cold-cache-per-query rule of
        // the tier applies here too.
        std::scoped_lock disk_lock(sync_->disk_mu);
        DiskResidentLists& tier = EnsureDiskTierLocked();
        tier.device().Reset();  // Cold cache per query.
        tier.BeginQuery(effective.cancel);
        std::unordered_set<TermId> charged;
        for (TermId t : query.terms) {
          if (!charged.insert(t).second) continue;
          const uint64_t entries =
              PartialLength(word_lists_->list(t).size(), smj_fraction_);
          if (entries == 0) continue;  // empty lists have no device range
          tier.ChargeListScan(tier.ListHandleOf(t), entries);
        }
        const DiskStats& stats = tier.device().stats();
        result.disk_ms = stats.cost_ms;
        result.disk_io.blocks_read = stats.BlocksRead();
        result.disk_io.seeks = stats.Seeks();
        result.disk_io.bytes = stats.bytes_read;
        if (result.status.ok() && !tier.last_error().ok()) {
          result.status = tier.last_error();
        }
      }
      break;
    }
  }
  // The count-based miners have no internal phases to trace; synthesize
  // their one-span story from the result accounting so a traced request
  // always comes back with a tree (the list miners attach richer ones).
  if (effective.trace && result.trace == nullptr) {
    result.trace = std::make_shared<TraceSpan>();
    result.trace->name = std::string("mine:") + AlgorithmName(algorithm);
    result.trace->wall_ms = result.compute_ms;
    AddCounter(result.trace.get(), "entries_read",
               static_cast<double>(result.entries_read));
    AddCounter(result.trace.get(), "subcollection",
               static_cast<double>(result.subcollection_size));
  }
  // Stamp the epoch of the overlay actually applied: the engine's own
  // snapshot on the auto path. With a caller-supplied delta the engine
  // cannot know its epoch -- the label stays 0 and the caller stamps the
  // epoch of the snapshot it passed in.
  if (!caller_delta) result.epoch = snap.epoch;
  result.guarantee = GuaranteeFor(algorithm, effective.delta != nullptr,
                                  smj_fraction_ >= 1.0);
  return result;
}

// --- Live updates ------------------------------------------------------------

uint64_t MiningEngine::NextStructureVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void MiningEngine::SetUpdateListener(UpdateListener listener) {
  std::scoped_lock update_lock(sync_->update_mu);
  update_listener_ = std::move(listener);
}

UpdateStats MiningEngine::ApplyUpdate(const UpdateBatch& batch,
                                      UpdateEvent* event) {
  std::scoped_lock update_lock(sync_->update_mu);
  // Copy-on-write: mines keep reading the published overlay while this
  // batch is absorbed into a private successor. All writers of delta_
  // hold update_mu, so reading it here without snapshot_mu is safe.
  // The full copy makes an ingest stream quadratic in overlay size, but
  // the overlay is bounded by rebuild_threshold (a fraction of the
  // corpus); a chained-delta representation is the upgrade path if
  // ingest-heavy workloads ever make this the bottleneck.
  auto next = delta_ != nullptr ? std::make_unique<DeltaIndex>(*delta_)
                                : std::make_unique<DeltaIndex>(dict_);

  // Touched-phrase collection is only paid when someone consumes it.
  const bool want_event = event != nullptr || update_listener_ != nullptr;
  std::vector<PhraseId> touched;
  std::vector<PhraseId>* touched_out = want_event ? &touched : nullptr;

  UpdateStats stats;
  for (const UpdateDoc& doc : batch.inserts) {
    Document d;
    d.tokens.reserve(doc.tokens.size());
    d.facets.reserve(doc.facets.size());
    {
      // Unseen terms are interned so the next rebuild picks them up; they
      // cannot affect any base-dictionary phrase until then.
      std::unique_lock vocab_lock(sync_->vocab_mu);
      for (const std::string& t : doc.tokens) {
        d.tokens.push_back(corpus_.vocab().Intern(t));
      }
      for (const std::string& f : doc.facets) {
        d.facets.push_back(corpus_.vocab().Intern(f));
      }
    }
    next->AddDocument(d.tokens, d.facets, touched_out);
    pending_inserts_.push_back(std::move(d));
    insert_deleted_.push_back(0);
    ++stats.batch_inserts;
  }
  for (DocId id : batch.deletes) {
    const Document* doc = LiveDoc(id);
    if (doc == nullptr) continue;
    next->RemoveDocument(doc->tokens, doc->facets, touched_out);
    if (id < corpus_.size()) {
      if (base_deleted_.size() < corpus_.size()) {
        base_deleted_.resize(corpus_.size(), 0);
      }
      base_deleted_[id] = 1;
    } else {
      insert_deleted_[id - corpus_.size()] = 1;
    }
    ++num_deleted_;
    ++stats.batch_deletes;
  }

  stats.pending_updates = next->pending_updates();
  stats.live_docs = corpus_.size() + pending_inserts_.size() - num_deleted_;
  stats.delta_fraction =
      stats.live_docs == 0
          ? (stats.pending_updates > 0 ? 1.0 : 0.0)
          : static_cast<double>(stats.pending_updates) /
                static_cast<double>(stats.live_docs);
  stats.rebuild_recommended = options_.rebuild_threshold > 0 &&
                              stats.delta_fraction >= options_.rebuild_threshold;
  {
    std::scoped_lock snapshot_lock(sync_->snapshot_mu);
    delta_ = std::move(next);
    stats.epoch = ++epoch_;
    last_update_stats_ = stats;
  }
  if (want_event) {
    // generation_/structure_version_/delta_ writers all hold update_mu
    // (which we hold), so reading them here without snapshot_mu is safe.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    UpdateEvent ev;
    ev.epoch = stats.epoch;
    ev.generation = generation_;
    ev.structure_version = structure_version_;
    ev.delta = delta_;
    ev.touched = std::move(touched);
    if (update_listener_ != nullptr) update_listener_(ev);
    if (event != nullptr) *event = std::move(ev);
  }
  return stats;
}

void MiningEngine::InternTerms(std::span<const std::string> terms) {
  std::unique_lock vocab_lock(sync_->vocab_mu);
  for (const std::string& t : terms) corpus_.vocab().Intern(t);
}

void MiningEngine::AdvanceEpoch(uint64_t min_epoch) {
  std::scoped_lock snapshot_lock(sync_->snapshot_mu);
  epoch_ = std::max(epoch_, min_epoch);
}

Corpus MiningEngine::CloneBaseCorpus() const {
  std::shared_lock lists_lock(sync_->lists_mu);
  std::shared_lock vocab_lock(sync_->vocab_mu);
  Corpus copy;
  copy.vocab() = corpus_.vocab();
  for (DocId d = 0; d < corpus_.size(); ++d) {
    copy.AddDocument(corpus_.doc(d));
  }
  return copy;
}

const Document* MiningEngine::LiveDoc(DocId id) const {
  if (id < corpus_.size()) {
    if (id < base_deleted_.size() && base_deleted_[id]) return nullptr;
    return &corpus_.doc(id);
  }
  const std::size_t i = id - corpus_.size();
  if (i >= pending_inserts_.size() || insert_deleted_[i]) return nullptr;
  return &pending_inserts_[i];
}

void MiningEngine::Rebuild() {
  // Holding update_mu for the whole rebuild keeps the live-document set
  // frozen: ingest stalls until the swap, mining does not. Known
  // limitation: the final exclusive lists_mu acquisition competes with a
  // stream of shared-holding mines, and a reader-preferring rwlock
  // implementation can delay the swap (and the ingest stream queued on
  // update_mu behind it) while query pressure stays high; a
  // rebuild-pending gate that pauses new mine admissions is the upgrade
  // path if ingest latency under saturation ever matters.
  std::scoped_lock update_lock(sync_->update_mu);

  // Materialize the live document set. The vocabulary is carried over so
  // term ids (and therefore parsed queries) survive the rebuild.
  Corpus updated;
  {
    std::shared_lock vocab_lock(sync_->vocab_mu);
    updated.vocab() = corpus_.vocab();
  }
  for (DocId d = 0; d < corpus_.size(); ++d) {
    if (d < base_deleted_.size() && base_deleted_[d]) continue;
    updated.AddDocument(corpus_.doc(d));
  }
  for (std::size_t i = 0; i < pending_inserts_.size(); ++i) {
    if (insert_deleted_[i]) continue;
    updated.AddDocument(pending_inserts_[i]);
  }

  std::vector<TermId> warm_terms;
  double fraction;
  {
    std::shared_lock lists_lock(sync_->lists_mu);
    warm_terms = word_lists_->Terms();
    fraction = smj_fraction_;
  }

  // The expensive part runs against a private engine; readers are
  // untouched until the swap below. The persist path is cleared for the
  // intermediate Build -- the re-persist happens once, below, after the
  // warm lists are in (so the persisted file backs them on a reload).
  Options build_options = options_;
  build_options.persist_path.clear();
  MiningEngine fresh = Build(std::move(updated), build_options);
  fresh.EnsureWordLists(warm_terms);

  std::unique_lock lists_lock(sync_->lists_mu);
  std::unique_lock vocab_lock(sync_->vocab_mu);
  corpus_ = std::move(fresh.corpus_);
  dict_ = std::move(fresh.dict_);
  inverted_ = std::move(fresh.inverted_);
  forward_full_ = std::move(fresh.forward_full_);
  forward_compressed_ = std::move(fresh.forward_compressed_);
  phrase_file_ = std::move(fresh.phrase_file_);
  avg_doc_phrases_ = fresh.avg_doc_phrases_;
  word_lists_ = std::move(fresh.word_lists_);
  smj_fraction_ = fraction;
  id_lists_.reset();
  disk_lists_.reset();
  postings_.reset();
  exact_.reset();
  gm_.reset();
  simitsis_.reset();
  // Any open mapping describes the pre-rebuild structures; drop it (the
  // disk tier falls back to unbacked ranges until a reload).
  index_file_.reset();
  mapped_layout_ = MappedListLayout{};
  pending_inserts_.clear();
  insert_deleted_.clear();
  base_deleted_.clear();
  num_deleted_ = 0;
  uint64_t rebuilt_epoch;
  {
    std::scoped_lock snapshot_lock(sync_->snapshot_mu);
    delta_.reset();
    ++epoch_;
    ++generation_;
    // Adopt the fresh build's process-unique structure id: PhraseIds were
    // reassigned, so version-keyed caches must miss from now on.
    structure_version_ = fresh.structure_version_;
    last_update_stats_ = UpdateStats{};
    last_update_stats_.epoch = epoch_;
    last_update_stats_.live_docs = corpus_.size();
    rebuilt_epoch = epoch_;
  }
  lists_lock.unlock();
  vocab_lock.unlock();
  if (update_listener_ != nullptr) {
    UpdateEvent ev;
    ev.epoch = rebuilt_epoch;
    ev.generation = generation_;
    ev.structure_version = structure_version_;
    ev.rebuilt = true;
    update_listener_(ev);
  }
  // Re-persist the rebuilt engine (update_mu is still held, so no new
  // batch can interleave between the swap and the file write).
  if (!options_.persist_path.empty()) {
    persist_status_ = SaveToFile(options_.persist_path);
  }
}

uint64_t MiningEngine::epoch() const {
  std::scoped_lock lock(sync_->snapshot_mu);
  return epoch_;
}

uint64_t MiningEngine::list_generation() const {
  std::scoped_lock lock(sync_->snapshot_mu);
  return generation_;
}

uint64_t MiningEngine::structure_version() const {
  std::scoped_lock lock(sync_->snapshot_mu);
  return structure_version_;
}

EpochDelta MiningEngine::delta_snapshot() const {
  std::scoped_lock lock(sync_->snapshot_mu);
  return EpochDelta{epoch_, generation_, delta_, structure_version_};
}

UpdateStats MiningEngine::update_stats() const {
  std::scoped_lock lock(sync_->snapshot_mu);
  return last_update_stats_;
}

}  // namespace phrasemine
