#ifndef PHRASEMINE_INDEX_LIST_ENTRY_H_
#define PHRASEMINE_INDEX_LIST_ENTRY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "text/types.h"

namespace phrasemine {

/// One [phraseid, prob] pair of a word-specific list (Figure 2). `prob`
/// holds P(q|p) = |docs(q) ∩ docs(p)| / |docs(p)| (Eq. 13).
struct ListEntry {
  PhraseId phrase;
  double prob;
};

/// Packed entry size: 4-byte id + 8-byte double, the figure the paper's
/// Section 5.7 index-size accounting uses. It is the one byte unit of a
/// list: what an entry occupies in the index file, what SimulatedDisk
/// charges per entry, and what a resident list costs in memory, where
/// every list is a packed SoABlockList (separate id and prob arrays).
inline constexpr std::size_t kListEntryBytes = 12;

/// Size of one entry of the transient AoS build form (the struct pads the
/// id to alignof(double)). No resident list is held in this form.
inline constexpr std::size_t kListEntryInMemoryBytes = sizeof(ListEntry);

/// An AoS entry run by shared ownership: the output of the list builders
/// (WordScoreLists::BuildOne, WordIdOrderedLists::IdOrderPrefix), packed
/// into a SoABlockList before it is stored.
using SharedWordList = std::shared_ptr<const std::vector<ListEntry>>;

}  // namespace phrasemine

#endif  // PHRASEMINE_INDEX_LIST_ENTRY_H_
