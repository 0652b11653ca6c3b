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

/// Word-specific phrase lists sorted by non-increasing P(q|p), ties broken
/// by increasing phrase id (Section 4.2.2). Zero-probability phrases are
/// omitted. These lists are the input of the NRA algorithm; truncating each
/// to its top fraction gives the paper's "partial lists".
///
/// Threading: individual lists are immutable after construction, and all
/// const member functions are safe to call concurrently. Mutations (Merge,
/// Insert) require exclusive access; MiningEngine serializes them behind
/// its internal lock.
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

  /// Builds the score-ordered list of a single term; the output is
  /// byte-identical to the per-term lists produced by Build/BuildAll.
  static SharedWordList BuildOne(const InvertedIndex& inverted,
                                 const ForwardIndex& forward,
                                 const PhraseDictionary& dict, TermId term);

  /// True if a list exists for this term (it may still be empty).
  bool Has(TermId term) const { return lists_.contains(term); }

  /// Full score-ordered list for a term; empty span if absent.
  std::span<const ListEntry> list(TermId term) const;

  /// Shared handle to a term's list; nullptr if absent.
  SharedWordList shared(TermId term) const;

  /// Adds a prebuilt list for a term; keeps the existing list if one is
  /// already present (all builders produce identical lists for a term).
  void Insert(TermId term, SharedWordList list);

  /// Prefix of the list covering `fraction` of its entries (ceil rounding),
  /// the paper's partial-list view. fraction is clamped to [0, 1].
  std::span<const ListEntry> Partial(TermId term, double fraction) const;

  /// Number of terms with lists.
  std::size_t num_terms() const { return lists_.size(); }

  /// Total entries across all lists.
  std::size_t TotalEntries() const;

  /// Index size in bytes at the packed 12 bytes/entry (Section 5.7
  /// accounting), scaled by the partial-list fraction.
  std::size_t SizeBytes(double fraction = 1.0) const;

  /// Resident index size at sizeof(ListEntry) bytes/entry -- what the AoS
  /// lists actually occupy in RAM (see kListEntryInMemoryBytes).
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

  /// Serialization to/from the library's binary format. The serialized
  /// form is deterministic (terms written in ascending id order), so the
  /// same lists always produce the same bytes -- a requirement for the
  /// checksummed index file sections.
  void Serialize(BinaryWriter* writer) const;
  /// When `layout` is non-null, records each term's entry-run location
  /// (offsets relative to the reader's position at call time).
  static Result<WordScoreLists> Deserialize(BinaryReader* reader,
                                            SerializedLayout* layout = nullptr);

 private:
  /// Entries across all lists at a partial fraction (ceil per list), the
  /// shared truncation rule behind both byte accountings.
  std::size_t EntriesAt(double fraction) const;

  std::unordered_map<TermId, SharedWordList> lists_;
};

/// Word-specific lists re-ordered by increasing phrase id (Section 4.4.1,
/// Figure 4), the input of the SMJ algorithm. Partial lists are a
/// construction-time decision here: the top `fraction` of the score-ordered
/// list is taken first and then re-sorted by id, so a different fraction
/// requires rebuilding -- exactly the run-time/construction-time asymmetry
/// the paper contrasts between NRA and SMJ.
///
/// Every inserted list also carries a packed SoA block view (SoABlockList,
/// core/kernels.h): contiguous id and prob arrays with per-block max-id
/// skip headers. The merge kernels run on that view; the AoS entry run
/// stays the canonical representation for overlay assembly and the scalar
/// reference path.
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

  /// Re-sorts one score-ordered list prefix by phrase id; the single-term
  /// unit of Build, which MiningEngine also uses to build id-ordered lists
  /// term by term. The prefix must already be truncated to the desired
  /// fraction (see WordScoreLists::Partial).
  static SharedWordList IdOrderPrefix(std::span<const ListEntry> prefix);

  /// Merges two id-ordered entry runs into one id-ordered list. Used to
  /// overlay DeltaIndex::ExtraIdOrderedEntries onto a stored list for the
  /// per-query SMJ bundles mined under live updates; the inputs must be
  /// sorted by phrase id and share no phrase.
  static SharedWordList MergeById(std::span<const ListEntry> base,
                                  std::span<const ListEntry> extras);

  bool Has(TermId term) const { return lists_.contains(term); }

  /// Id-ordered list for a term; empty span if absent.
  std::span<const ListEntry> list(TermId term) const;

  /// Shared handle to a term's list; nullptr if absent.
  SharedWordList shared(TermId term) const;

  /// Packed SoA block view of a term's list (built at Insert time);
  /// nullptr if the term has no list. Valid as long as the container (the
  /// view is shared-owned alongside the AoS run).
  const SoABlockList* soa(TermId term) const;

  /// Shared handle to a term's SoA view; nullptr if absent. Pass it to
  /// another container's Insert to share the view instead of rebuilding
  /// it (per-query overlay bundles).
  SharedSoAList shared_soa(TermId term) const;

  /// Adds a prebuilt id-ordered list; keeps any existing list for the
  /// term. When `soa` is null the SoA view is built here (an O(list)
  /// copy); pass the list's already-built view to make insertion O(1) --
  /// the per-query bundle paths do, so a bundle never re-packs a list the
  /// engine already packed.
  void Insert(TermId term, SharedWordList list, SharedSoAList soa = nullptr);

  double fraction() const { return fraction_; }
  std::size_t TotalEntries() const;

 private:
  struct Stored {
    SharedWordList entries;
    SharedSoAList soa;
  };
  double fraction_ = 1.0;
  std::unordered_map<TermId, Stored> lists_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_INDEX_WORD_LISTS_H_
