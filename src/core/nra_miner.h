#ifndef PHRASEMINE_CORE_NRA_MINER_H_
#define PHRASEMINE_CORE_NRA_MINER_H_

#include "core/disk_lists.h"
#include "core/miner.h"
#include "index/word_lists.h"
#include "phrase/phrase_dictionary.h"

namespace phrasemine {

/// Algorithm 1 of the paper: No-Random-Access aggregation over the query
/// words' score-ordered phrase lists.
///
/// Entries are consumed round-robin across the r = |Q| lists. Every
/// candidate phrase carries the sum of its seen per-list scores and a mask
/// of the lists it was seen on; the last score read from each list is the
/// "global bound" for entries not yet seen there. Every `nra_batch_size`
/// reads that touch a candidate, the miner:
///   * stops admitting new candidates once the k-th best lower bound
///     dominates the best possible score of a fully-unseen phrase
///     (the checknew flag, line 11),
///   * prunes candidates whose upper bound cannot reach the top-k
///     (line 12), and
///   * terminates early when the current top-k is provably final
///     (line 13).
/// The deadline and disk-error poll runs every `nra_batch_size` reads of
/// any kind, so it keeps its pace after line 11 stops admitting new
/// candidates.
/// Setting MineOptions::list_fraction < 1 caps traversal at that fraction
/// of each list -- the paper's run-time partial lists.
///
/// When constructed with a DiskResidentLists, every entry read and the
/// final top-k phrase lookups are charged to the simulated disk and
/// reported in MineResult::disk_ms (Section 5.5 protocol).
class NraMiner : public Miner {
 public:
  /// In-memory operation.
  NraMiner(const WordScoreLists& lists, const PhraseDictionary& dict);

  /// Disk-resident operation. `disk_lists` must wrap the same WordScoreLists
  /// and outlive the miner; its cache is cold-reset at the start of every
  /// Mine() call.
  NraMiner(DiskResidentLists* disk_lists, const PhraseDictionary& dict);

  MineResult Mine(const Query& query, const MineOptions& options) override;
  std::string_view name() const override { return "NRA"; }

 private:
  const WordScoreLists& lists_;
  const PhraseDictionary& dict_;
  DiskResidentLists* disk_lists_ = nullptr;  // null for in-memory runs
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_NRA_MINER_H_
