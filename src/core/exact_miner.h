#ifndef PHRASEMINE_CORE_EXACT_MINER_H_
#define PHRASEMINE_CORE_EXACT_MINER_H_

#include <vector>

#include "core/miner.h"
#include "index/forward_index.h"
#include "index/inverted_index.h"
#include "phrase/phrase_dictionary.h"

namespace phrasemine {

/// Exact interesting-phrase mining per Eq. 1: materializes D', aggregates
/// per-phrase document counts over the full forward lists of D', and ranks
/// by freq(p, D') / freq(p, D). This is the ground truth every approximate
/// method is evaluated against (Section 5.3) and is essentially the
/// unoptimized forward-index method of Bedathur et al. [2].
///
/// Polls MineOptions::cancel every kCancelDocStride sub-collection
/// documents; on expiry it returns DeadlineExceeded with no phrases and
/// its scratch reset.
///
/// Thread-safe: the per-phrase counts live in the calling thread's
/// CountTable (common/slot_table.h), so concurrent mines share no state.
class ExactMiner : public Miner {
 public:
  ExactMiner(const InvertedIndex& inverted, const ForwardIndex& forward,
             const PhraseDictionary& dict);

  MineResult Mine(const Query& query, const MineOptions& options) override;
  std::string_view name() const override { return "Exact"; }

 private:
  const InvertedIndex& inverted_;
  const ForwardIndex& forward_;
  const PhraseDictionary& dict_;
};

/// Selects the top-k (score desc, id asc) from (phrase, score,
/// interestingness) triples accumulated by a miner. Shared by all miners so
/// tie-breaking is identical everywhere.
class TopKCollector {
 public:
  explicit TopKCollector(std::size_t k) : k_(k) {}

  /// Offers one candidate.
  void Offer(PhraseId phrase, double score, double interestingness);

  /// Extracts the ranked result (best first); the collector is consumed.
  std::vector<MinedPhrase> Take();

 private:
  std::size_t k_;
  std::vector<MinedPhrase> heap_;  // min-heap on (score asc, id desc)
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_EXACT_MINER_H_
