#ifndef PHRASEMINE_COMMON_SLOT_TABLE_H_
#define PHRASEMINE_COMMON_SLOT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phrasemine {

/// SlotTable entry of a phrase that has no row.
inline constexpr uint32_t kNoSlot = UINT32_MAX;

/// The calling thread's dense PhraseId -> row join table, at least `size`
/// entries. Phrase ids index a frozen dictionary, so a dense table beats
/// hashing when a query joins thousands of list entries onto flat
/// candidate rows.
///
/// Grow-only scratch that is all-kNoSlot between uses: every user resets
/// the entries it set before it returns, so a query pays neither a
/// dictionary-sized allocation nor a clear. Users index it with raw
/// phrase ids and must keep them below `size`.
///
/// The users are NraMiner::Mine and, in ShardedEngine::Mine, the
/// ListScatter / CountFill / ListFill legs and the candidate union. None
/// of them holds the table across a call that takes it again on the same
/// thread: TopKScatter runs the shard's NraMiner through engine.Mine with
/// the table free, and the union releases it before the fill legs run.
inline std::vector<uint32_t>& SlotTable(std::size_t size) {
  thread_local std::vector<uint32_t> table;
  if (table.size() < size) table.resize(size, kNoSlot);
  return table;
}

/// The calling thread's dense PhraseId -> count table for the count-based
/// scans (ExactMiner::Mine and ShardedEngine's count scatter leg), at
/// least `size` entries. Same contract as SlotTable, with zero as the
/// resting value: every user resets the counts it raised before it
/// returns, so concurrent scans on one engine share no scratch and a
/// pool worker pays the dictionary-sized allocation once, not per query.
inline std::vector<uint32_t>& CountTable(std::size_t size) {
  thread_local std::vector<uint32_t> table;
  if (table.size() < size) table.resize(size, 0);
  return table;
}

}  // namespace phrasemine

#endif  // PHRASEMINE_COMMON_SLOT_TABLE_H_
