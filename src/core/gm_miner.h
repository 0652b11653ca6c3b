#ifndef PHRASEMINE_CORE_GM_MINER_H_
#define PHRASEMINE_CORE_GM_MINER_H_

#include <vector>

#include "core/miner.h"
#include "index/forward_index.h"
#include "index/inverted_index.h"
#include "phrase/phrase_dictionary.h"

namespace phrasemine {

/// The exact forward-index baseline in the style of Gao & Michel [8]
/// ("GM" in the paper's evaluation): per-document phrase lists stored with
/// shared-prefix compression, aggregated over every document of D' with
/// parent-chain expansion and per-document dedup. Results are exact -- they
/// match ExactMiner -- but the cost is linear in |D'|, which is precisely
/// the weakness the paper's word-list methods attack.
///
/// Polls MineOptions::cancel every kCancelDocStride sub-collection
/// documents; on expiry it returns DeadlineExceeded with no phrases and
/// its scratch reset.
///
/// Not thread-safe: reuses internal scratch between queries.
class GmMiner : public Miner {
 public:
  /// `forward` should be built with ForwardStorage::kPrefixCompressed to
  /// reflect GM's storage optimization; a full index also works.
  GmMiner(const InvertedIndex& inverted, const ForwardIndex& forward,
          const PhraseDictionary& dict);

  MineResult Mine(const Query& query, const MineOptions& options) override;
  std::string_view name() const override { return "GM"; }

 private:
  const InvertedIndex& inverted_;
  const ForwardIndex& forward_;
  const PhraseDictionary& dict_;

  std::vector<uint32_t> counts_;
  std::vector<DocId> last_doc_;  // per-phrase dedup marker
  std::vector<PhraseId> touched_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_GM_MINER_H_
