#ifndef PHRASEMINE_INDEX_WORD_LISTS_H_
#define PHRASEMINE_INDEX_WORD_LISTS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/io_util.h"
#include "common/status.h"
#include "index/forward_index.h"
#include "index/inverted_index.h"
#include "index/list_entry.h"
#include "index/soa_list.h"
#include "phrase/phrase_dictionary.h"
#include "text/types.h"

namespace phrasemine {

/// Length of the paper's partial list covering `fraction` of an n-entry
/// list: ceil(fraction * n), fraction clamped to [0, 1]. The one
/// truncation rule behind NRA's traversal cap, the SMJ construction prefix
/// and the byte accounting.
std::size_t PartialLength(std::size_t n, double fraction);

/// Word-specific phrase lists sorted by non-increasing P(q|p), ties broken
/// by increasing phrase id (Section 4.2.2). Zero-probability phrases are
/// omitted. These lists are the input of the NRA algorithm; truncating each
/// to its top fraction (PartialLength) gives the paper's "partial lists".
///
/// Each term's list is held as one shared packed SoABlockList (without
/// skip headers), kListEntryBytes per entry; the builders sort a transient
/// AoS run and pack it.
///
/// Threading: individual lists are immutable after construction, and all
/// const member functions are safe to call concurrently. Merge requires
/// exclusive access; MiningEngine serializes it behind its internal lock.
class WordScoreLists {
 public:
  WordScoreLists() = default;

  WordScoreLists(WordScoreLists&&) = default;
  WordScoreLists& operator=(WordScoreLists&&) = default;
  WordScoreLists(const WordScoreLists&) = delete;
  WordScoreLists& operator=(const WordScoreLists&) = delete;

  /// Builds lists for the given terms only. Building a term's list costs
  /// O(sum of forward-list lengths over docs(term)), so restricting to the
  /// query workload's terms keeps preprocessing tractable on large corpora;
  /// BuildAll covers every term for small corpora and for index-size
  /// studies.
  static WordScoreLists Build(const InvertedIndex& inverted,
                              const ForwardIndex& forward,
                              const PhraseDictionary& dict,
                              std::span<const TermId> terms);

  /// Builds lists for every term with document frequency >= min_term_df.
  static WordScoreLists BuildAll(const InvertedIndex& inverted,
                                 const ForwardIndex& forward,
                                 const PhraseDictionary& dict,
                                 uint32_t min_term_df = 1);

  /// Builds the score-ordered AoS run of a single term, the build input
  /// Build/BuildAll pack: entry for entry the list they store.
  static SharedWordList BuildOne(const InvertedIndex& inverted,
                                 const ForwardIndex& forward,
                                 const PhraseDictionary& dict, TermId term);

  /// True if a list exists for this term (it may still be empty).
  bool Has(TermId term) const { return lists_.contains(term); }

  /// Full score-ordered list for a term; an empty list if absent. Valid
  /// as long as the container.
  const SoABlockList& list(TermId term) const;

  /// Number of terms with lists.
  std::size_t num_terms() const { return lists_.size(); }

  /// Total entries across all lists.
  std::size_t TotalEntries() const;

  /// Resident bytes of one term's list: entries * kListEntryBytes, the
  /// figure the disk tier's spill policy budgets (0 if absent).
  std::size_t ListBytes(TermId term) const;

  /// Resident bytes of every list truncated to `fraction` (PartialLength
  /// per list) at kListEntryBytes per entry -- also the paper's Section
  /// 5.7 index size, since memory and file share the packed unit.
  std::size_t InMemoryBytes(double fraction = 1.0) const;

  /// Terms that have lists, in unspecified order.
  std::vector<TermId> Terms() const;

  /// Absorbs all lists of `other` (move). Lists for terms already present
  /// are kept as-is; both sides were built from the same immutable corpus,
  /// so they are identical anyway. Enables incremental extension of the
  /// indexed term set as new query workloads arrive.
  void Merge(WordScoreLists&& other);

  /// Per-term location of the packed 12-byte entry runs inside a
  /// serialized WordScoreLists payload, as captured by Deserialize:
  /// byte offset of the term's first entry (local to the payload start)
  /// and its entry count. The entries of one term are contiguous at
  /// kListEntryBytes each, so the disk tier can register each run as a
  /// mapped byte range and stream it straight out of the index file.
  struct SerializedLayout {
    std::unordered_map<TermId, std::pair<uint64_t, uint64_t>> entry_runs;
  };

  /// Serialization to/from the library's binary format: per term, an AoS
  /// run of packed (u32 id, f64 prob) entries. The serialized form is
  /// deterministic (terms written in ascending id order), so the same
  /// lists always produce the same bytes -- a requirement for the
  /// checksummed index file sections.
  void Serialize(BinaryWriter* writer) const;
  /// When `layout` is non-null, records each term's entry-run location
  /// (offsets relative to the reader's position at call time).
  static Result<WordScoreLists> Deserialize(BinaryReader* reader,
                                            SerializedLayout* layout = nullptr);

 private:
  std::unordered_map<TermId, SharedSoAList> lists_;
};

/// Word-specific lists re-ordered by increasing phrase id (Section 4.4.1,
/// Figure 4), the input of the SMJ algorithm. Partial lists are a
/// construction-time decision here: the top `fraction` of the score-ordered
/// list is taken first and then re-sorted by id, so a different fraction
/// requires rebuilding -- exactly the run-time/construction-time asymmetry
/// the paper contrasts between NRA and SMJ.
///
/// Each term's list is held only as a packed SoA block list (SoABlockList:
/// contiguous id and prob arrays with per-block max-id skip headers), the
/// form the merge kernels (core/kernels.h), the delta overlay merge and
/// the fleet's support lookups all read. The AoS re-sort is transient
/// build input, dropped once packed.
///
/// Threading: same contract as WordScoreLists -- const reads are safe
/// concurrently, mutations require exclusive access.
class WordIdOrderedLists {
 public:
  WordIdOrderedLists() = default;

  /// Empty container pinned at a fraction, to be populated via Insert
  /// (the engine's per-term id lists and its per-query overlay bundles).
  explicit WordIdOrderedLists(double fraction);

  WordIdOrderedLists(WordIdOrderedLists&&) = default;
  WordIdOrderedLists& operator=(WordIdOrderedLists&&) = default;
  WordIdOrderedLists(const WordIdOrderedLists&) = delete;
  WordIdOrderedLists& operator=(const WordIdOrderedLists&) = delete;

  /// Builds id-ordered lists from score-ordered lists at a fixed fraction.
  static WordIdOrderedLists Build(const WordScoreLists& score_lists,
                                  double fraction);

  /// Re-sorts one score-ordered AoS prefix by phrase id, the build-time
  /// sort. The prefix must already be truncated to the desired fraction
  /// (see PartialLength).
  static SharedWordList IdOrderPrefix(std::span<const ListEntry> prefix);

  /// The id-ordered SoA list of `score_list`'s partial prefix at
  /// `fraction`: the prefix is zipped into a transient AoS run, re-sorted
  /// by IdOrderPrefix and packed by SoABlockList::FromIdOrdered. The
  /// single-term unit of Build, which MiningEngine also uses to build
  /// id-ordered lists term by term.
  static SharedSoAList PackPrefix(const SoABlockList& score_list,
                                  double fraction);

  bool Has(TermId term) const { return lists_.contains(term); }

  /// A term's list; nullptr if absent. Valid as long as the container.
  const SoABlockList* soa(TermId term) const;

  /// Shared handle to a term's list; nullptr if absent. Pass it to
  /// another container's Insert to share the list instead of rebuilding
  /// it (per-query overlay bundles).
  SharedSoAList shared_soa(TermId term) const;

  /// Adds a prebuilt id-ordered list; keeps any existing list for the
  /// term. O(1): the list is shared, never copied.
  void Insert(TermId term, SharedSoAList list);

  double fraction() const { return fraction_; }
  std::size_t TotalEntries() const;

  /// Resident bytes of every term's SoA list (SoABlockList::MemoryBytes).
  std::size_t MemoryBytes() const;

 private:
  double fraction_ = 1.0;
  std::unordered_map<TermId, SharedSoAList> lists_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_INDEX_WORD_LISTS_H_
