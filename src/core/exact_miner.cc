#include "core/exact_miner.h"

#include <algorithm>

#include "common/cancel.h"
#include "common/check.h"
#include "common/slot_table.h"
#include "common/stopwatch.h"
#include "testing/failpoint.h"

namespace phrasemine {

namespace {

/// Min-heap ordering: the *worst* candidate sits at the front. A candidate
/// is worse when its score is lower, or on equal scores when its id is
/// larger (so ranking prefers smaller ids, matching the word-list
/// tie-break of Section 4.2.2).
bool HeapWorse(const MinedPhrase& a, const MinedPhrase& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.phrase < b.phrase;
}

}  // namespace

void TopKCollector::Offer(PhraseId phrase, double score,
                          double interestingness) {
  if (k_ == 0) return;
  MinedPhrase candidate{phrase, score, interestingness};
  if (heap_.size() < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), HeapWorse);
    return;
  }
  const MinedPhrase& worst = heap_.front();
  const bool better = candidate.score > worst.score ||
                      (candidate.score == worst.score &&
                       candidate.phrase < worst.phrase);
  if (better) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapWorse);
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end(), HeapWorse);
  }
}

std::vector<MinedPhrase> TopKCollector::Take() {
  std::sort(heap_.begin(), heap_.end(),
            [](const MinedPhrase& a, const MinedPhrase& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.phrase < b.phrase;
            });
  return std::move(heap_);
}

ExactMiner::ExactMiner(const InvertedIndex& inverted,
                       const ForwardIndex& forward,
                       const PhraseDictionary& dict)
    : inverted_(inverted), forward_(forward), dict_(dict) {}

MineResult ExactMiner::Mine(const Query& query, const MineOptions& options) {
  StopWatch watch;
  MineResult result;

  const std::vector<DocId> subset = EvalSubCollection(query, inverted_);
  result.subcollection_size = subset.size();

  std::vector<uint32_t>& counts = CountTable(dict_.size());
  std::vector<PhraseId> touched;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (i % kCancelDocStride == 0) {
      if (failpoint::Enabled()) (void)PM_FAILPOINT("miner.count.poll");
      if (CancelExpired(options.cancel)) {
        result.status =
            Status::DeadlineExceeded("deadline expired during Exact scan");
        break;
      }
    }
    for (PhraseId p : forward_.Phrases(subset[i], dict_)) {
      if (counts[p] == 0) touched.push_back(p);
      ++counts[p];
      ++result.entries_read;
    }
  }
  if (!result.status.ok()) {
    // Partial counts rank nothing; reset the scratch for the next query.
    for (PhraseId p : touched) counts[p] = 0;
    result.compute_ms = watch.ElapsedMillis();
    return result;
  }

  TopKCollector collector(options.k);
  for (PhraseId p : touched) {
    const uint32_t df = dict_.df(p);
    PM_CHECK(df > 0);
    const double score =
        EvaluateInterestingness(options.measure, counts[p], df,
                                subset.size(), forward_.num_docs());
    collector.Offer(p, score, score);
    counts[p] = 0;  // Reset scratch for the next query.
  }
  result.phrases = collector.Take();
  result.compute_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace phrasemine
