#ifndef PHRASEMINE_CORE_SMJ_MINER_H_
#define PHRASEMINE_CORE_SMJ_MINER_H_

#include "core/miner.h"
#include "index/word_lists.h"
#include "phrase/phrase_dictionary.h"

namespace phrasemine {

/// Algorithm 2 of the paper: Sort-Merge-Join aggregation over the query
/// words' phrase-ID-ordered lists (Section 4.4). Because every list is
/// sorted by the join attribute (the phrase id), a single k-way merge
/// visits each phrase exactly once with all of its per-list probabilities
/// together, so scores are computed on the fly and only a k-sized heap is
/// kept. SMJ must scan every list to completion for OR queries -- there is
/// no early termination -- which is why the paper recommends it for short
/// (strongly truncated) lists and NRA for long ones. The partial-list
/// fraction is fixed at WordIdOrderedLists construction time;
/// MineOptions::list_fraction is ignored here.
///
/// The merge runs on the lists' SoA block form (core/kernels.h): a
/// galloping intersection for AND that skips from the shortest list via
/// the block headers, a block-at-a-time merge for OR. The textbook
/// entry-at-a-time merge of Algorithm 2 lives in the test tree as the
/// reference these kernels are differentially checked against.
class SmjMiner : public Miner {
 public:
  SmjMiner(const WordIdOrderedLists& lists, const PhraseDictionary& dict);

  MineResult Mine(const Query& query, const MineOptions& options) override;
  std::string_view name() const override { return "SMJ"; }

 private:
  const WordIdOrderedLists& lists_;
  const PhraseDictionary& dict_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_SMJ_MINER_H_
