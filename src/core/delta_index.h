#ifndef PHRASEMINE_CORE_DELTA_INDEX_H_
#define PHRASEMINE_CORE_DELTA_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "index/word_lists.h"
#include "phrase/phrase_dictionary.h"
#include "text/types.h"

namespace phrasemine {

/// Incremental-update overlay of Section 4.5.1. The word-specific lists
/// hold pre-computed conditional probabilities, which are expensive to keep
/// current under document churn; instead, inserted and deleted documents
/// are accumulated here, and when SMJ or NRA takes a phrase into its
/// candidate set it queries this index for the delta of the (word, phrase)
/// co-occurrence count and of the phrase's document frequency, from which
/// the corrected conditional probability follows. The paper notes -- and
/// our tests confirm -- that this keeps SMJ exact w.r.t. the updated
/// corpus, while NRA's pruning bounds become approximate (adjusted scores
/// need not respect the stored list order). Phrases that only become
/// frequent through updates are deliberately out of scope: they enter P at
/// the next periodic offline rebuild.
///
/// The dictionary is consulted only while updates are absorbed
/// (AddDocument/RemoveDocument): the base document frequency of every
/// touched phrase is snapshotted into the overlay at that point, so the
/// read-side accessors (AdjustedProb, the delta getters, the extra-entry
/// enumeration) touch nothing but the overlay's own immutable maps. That
/// is what lets MiningEngine hand out shared_ptr snapshots of this class
/// that stay valid -- and mine-safe without any lock -- across a
/// concurrent index rebuild.
///
/// Thread-safety: const member functions are safe to call concurrently;
/// mutations require exclusive access. MiningEngine treats instances as
/// immutable once published (copy-on-write per update batch).
class DeltaIndex {
 public:
  explicit DeltaIndex(const PhraseDictionary& dict) : dict_(&dict) {}

  /// Registers an inserted document given its token and facet term ids.
  /// When `touched` is non-null the phrase ids whose deltas this document
  /// moved are appended to it (unsorted, may repeat across calls) -- the
  /// subscription layer's per-batch "what could have changed" set.
  void AddDocument(std::span<const TermId> tokens,
                   std::span<const TermId> facets = {},
                   std::vector<PhraseId>* touched = nullptr);

  /// Registers a deletion of a document with this content.
  void RemoveDocument(std::span<const TermId> tokens,
                      std::span<const TermId> facets = {},
                      std::vector<PhraseId>* touched = nullptr);

  /// Net change of |docs(p)| from the accumulated updates.
  int64_t DfDelta(PhraseId p) const;

  /// Net change of |docs(w) ∩ docs(p)|.
  int64_t CoDelta(TermId w, PhraseId p) const;

  /// Net change of the *term* document frequency |docs(w)|, used by the
  /// cost planner to keep its selectivity estimates honest as the overlay
  /// grows.
  int64_t TermDfDelta(TermId w) const;

  /// Net change of the corpus document count |D|.
  int64_t DocsDelta() const { return docs_delta_; }

  /// Corrects a stored P(w|p) for the accumulated updates. `base_prob` is
  /// the pre-computed list value; the base co-occurrence count is recovered
  /// from it via the phrase's snapshotted base df. Returns a probability
  /// clamped to [0, 1]; a phrase whose adjusted df reaches zero yields 0.
  double AdjustedProb(TermId w, PhraseId p, double base_prob) const;

  /// Entries for phrases whose (w, p) co-occurrence became positive purely
  /// through updates -- they are absent from the stored word list (which
  /// only holds base-positive pairs), so the merge-based miners would never
  /// see them. Returned id-ordered with stored prob 0 (the correct base
  /// value), ready to merge into an id-ordered list via
  /// WordIdOrderedLists::MergeById; AdjustedProb then recovers the true
  /// probability at read time. `id_ordered_base` must be sorted by phrase
  /// id. This is what keeps SMJ exact under inserts that create new
  /// co-occurrences of base-dictionary phrases -- over *full* lists only:
  /// a truncated prefix (smj_fraction < 1) hides base-positive pairs, so
  /// an extra synthesized against it carries base count 0 instead of the
  /// hidden base count, and truncated SMJ stays approximate under updates
  /// (results are stamped accordingly).
  std::vector<ListEntry> ExtraIdOrderedEntries(
      TermId w, std::span<const ListEntry> id_ordered_base) const;

  /// Overlays this delta onto one stored id-ordered list: the base entries
  /// plus the delta-only extras for `term`. `base` may be null (term has
  /// no stored list); the result is never null, and is `base` itself when
  /// the overlay adds nothing. MiningEngine's SMJ bundle assembly uses it
  /// so the exactness-critical merge has exactly one implementation.
  SharedWordList OverlayIdOrdered(TermId term, SharedWordList base) const;

  /// Number of Add/Remove calls absorbed since construction; drives the
  /// "flush and rebuild offline" policy.
  std::size_t pending_updates() const { return pending_updates_; }

 private:
  void Apply(std::span<const TermId> tokens, std::span<const TermId> facets,
             int64_t sign, std::vector<PhraseId>* touched);

  const PhraseDictionary* dict_;  // write-side only; see class comment
  std::unordered_map<PhraseId, int64_t> df_delta_;
  /// Per-term co-occurrence deltas, keyed term-first so the extra-entry
  /// enumeration for one query term never scans other terms' pairs.
  std::unordered_map<TermId, std::unordered_map<PhraseId, int64_t>> co_delta_;
  /// Base |docs(p)| snapshotted at first touch; read-side df source.
  std::unordered_map<PhraseId, uint32_t> base_df_;
  std::unordered_map<TermId, int64_t> term_df_delta_;
  int64_t docs_delta_ = 0;
  std::size_t pending_updates_ = 0;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_DELTA_INDEX_H_
