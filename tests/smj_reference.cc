#include "smj_reference.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/exact_miner.h"
#include "core/scoring.h"

namespace phrasemine::testing {

MineResult ReferenceSmjMine(const Query& query,
                            std::span<const std::vector<ListEntry>> lists,
                            std::size_t k, OrExpansionOrder or_order,
                            const DeltaIndex* delta) {
  PM_CHECK_MSG(lists.size() == query.terms.size(),
               "one list per query term");
  MineResult result;
  StopWatch watch;

  const QueryOperator op = query.op;
  const std::size_t r = query.terms.size();
  std::vector<std::vector<ListEntry>> overlaid;
  if (delta != nullptr) {
    overlaid.resize(r);
    for (std::size_t i = 0; i < r; ++i) {
      std::vector<PhraseId> ids;
      ids.reserve(lists[i].size());
      for (const ListEntry& e : lists[i]) ids.push_back(e.phrase);
      const std::vector<ListEntry> extras =
          delta->ExtraIdOrderedEntries(query.terms[i], ids);
      std::merge(lists[i].begin(), lists[i].end(), extras.begin(),
                 extras.end(), std::back_inserter(overlaid[i]),
                 [](const ListEntry& a, const ListEntry& b) {
                   return a.phrase < b.phrase;
                 });
    }
    lists = overlaid;
  }
  std::vector<std::size_t> pos(r, 0);

  TopKCollector collector(k);
  std::vector<double> probs;
  probs.reserve(r);
  std::size_t distinct = 0;

  for (;;) {
    // Find the smallest unread phrase id across lists (Alg. 2 line 4);
    // r is tiny (2-6), so a linear scan beats a heap.
    PhraseId min_id = kInvalidPhraseId;
    for (std::size_t i = 0; i < r; ++i) {
      if (pos[i] < lists[i].size() && lists[i][pos[i]].phrase < min_id) {
        min_id = lists[i][pos[i]].phrase;
      }
    }
    if (min_id == kInvalidPhraseId) break;  // All lists exhausted.

    // Consume every list entry carrying min_id; collect the per-term
    // conditional probabilities (absent lists contribute 0).
    probs.clear();
    std::size_t present = 0;
    for (std::size_t i = 0; i < r; ++i) {
      double p = 0.0;
      if (pos[i] < lists[i].size() && lists[i][pos[i]].phrase == min_id) {
        p = lists[i][pos[i]].prob;
        if (delta != nullptr) {
          p = delta->AdjustedProb(query.terms[i], min_id, p);
        }
        ++pos[i];
        ++present;
        ++result.entries_read;
      }
      probs.push_back(p);
    }
    ++distinct;

    double score;
    if (op == QueryOperator::kAnd) {
      if (present < r) continue;  // A zero factor nullifies an AND product.
      score = AndScore(probs);
      if (score == kMinusInfinity) continue;
    } else {
      score = OrScore(probs, or_order);
      if (score <= 0.0) continue;
    }
    collector.Offer(min_id, score, ScoreToInterestingness(score, op));
  }

  result.peak_candidates = distinct;
  result.phrases = collector.Take();
  result.compute_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace phrasemine::testing
