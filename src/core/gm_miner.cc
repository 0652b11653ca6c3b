#include "core/gm_miner.h"

#include "common/cancel.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "testing/failpoint.h"
#include "core/exact_miner.h"

namespace phrasemine {

GmMiner::GmMiner(const InvertedIndex& inverted, const ForwardIndex& forward,
                 const PhraseDictionary& dict)
    : inverted_(inverted), forward_(forward), dict_(dict) {
  counts_.assign(dict_.size(), 0);
  last_doc_.assign(dict_.size(), kInvalidTermId);
}

MineResult GmMiner::Mine(const Query& query, const MineOptions& options) {
  StopWatch watch;
  MineResult result;

  const std::vector<DocId> subset = EvalSubCollection(query, inverted_);
  result.subcollection_size = subset.size();

  touched_.clear();
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (i % kCancelDocStride == 0) {
      if (failpoint::Enabled()) (void)PM_FAILPOINT("miner.count.poll");
      if (CancelExpired(options.cancel)) {
        result.status =
            Status::DeadlineExceeded("deadline expired during GM scan");
        break;
      }
    }
    const DocId d = subset[i];
    for (PhraseId stored : forward_.stored(d)) {
      ++result.entries_read;
      // Count the stored phrase and all implied prefixes. The chain walk
      // stops at the first phrase already counted for this document: if a
      // phrase was counted, so were all its ancestors.
      PhraseId p = stored;
      while (p != kInvalidPhraseId && last_doc_[p] != d) {
        last_doc_[p] = d;
        if (counts_[p] == 0) touched_.push_back(p);
        ++counts_[p];
        p = dict_.info(p).parent;
      }
    }
  }

  if (!result.status.ok()) {
    // Partial counts rank nothing; reset the scratch for the next query.
    for (PhraseId p : touched_) {
      counts_[p] = 0;
      last_doc_[p] = kInvalidTermId;
    }
    result.compute_ms = watch.ElapsedMillis();
    return result;
  }

  TopKCollector collector(options.k);
  for (PhraseId p : touched_) {
    const uint32_t df = dict_.df(p);
    PM_CHECK(df > 0);
    const double score =
        EvaluateInterestingness(options.measure, counts_[p], df,
                                subset.size(), forward_.num_docs());
    collector.Offer(p, score, score);
    counts_[p] = 0;
    last_doc_[p] = kInvalidTermId;
  }
  result.phrases = collector.Take();
  result.compute_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace phrasemine
