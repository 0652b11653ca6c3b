#include "core/simitsis_miner.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/cancel.h"
#include "common/stopwatch.h"
#include "core/exact_miner.h"
#include "testing/failpoint.h"

namespace phrasemine {

SimitsisMiner::SimitsisMiner(const InvertedIndex& inverted,
                             const PhrasePostingIndex& postings,
                             const PhraseDictionary& dict,
                             std::size_t num_docs)
    : inverted_(inverted),
      postings_(postings),
      dict_(dict),
      num_docs_(num_docs) {}

MineResult SimitsisMiner::Mine(const Query& query,
                               const MineOptions& options) {
  StopWatch watch;
  MineResult result;

  const std::vector<DocId> subset = EvalSubCollection(query, inverted_);
  result.subcollection_size = subset.size();

  // Phase 1: scan lists longest-first, tracking the k best intersection
  // cardinalities; stop when remaining lists are shorter than the k-th best
  // (they cannot contain more matching documents than their length).
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      best_counts;  // min-heap of the k largest intersection counts
  struct Candidate {
    PhraseId phrase;
    std::size_t count;
  };
  std::vector<Candidate> candidates;
  std::size_t scanned = 0;
  std::size_t next_poll = 0;  // entries_read at which the token is polled
  for (PhraseId p : postings_.by_cardinality()) {
    const std::span<const DocId> docs = postings_.docs(p);
    if (best_counts.size() >= options.k && !best_counts.empty() &&
        docs.size() < best_counts.top()) {
      break;  // All remaining lists are at most this long.
    }
    if (result.entries_read >= next_poll) {
      if (failpoint::Enabled()) (void)PM_FAILPOINT("miner.count.poll");
      if (CancelExpired(options.cancel)) {
        // A partial phase 1 ranks nothing.
        result.status =
            Status::DeadlineExceeded("deadline expired during Simitsis scan");
        result.compute_ms = watch.ElapsedMillis();
        return result;
      }
      next_poll = result.entries_read + kCancelDocStride;
    }
    ++scanned;
    const std::size_t count = InvertedIndex::IntersectSize(docs, subset);
    result.entries_read += docs.size();
    if (count == 0) continue;
    candidates.push_back(Candidate{p, count});
    if (best_counts.size() < options.k) {
      best_counts.push(count);
    } else if (count > best_counts.top()) {
      best_counts.pop();
      best_counts.push(count);
    }
  }
  result.lists_traversed_fraction =
      postings_.num_phrases() == 0
          ? 1.0
          : static_cast<double>(scanned) /
                static_cast<double>(postings_.num_phrases());

  // Phase 2: normalized scoring of the retained candidates (Eq. 1, or the
  // requested alternative measure).
  TopKCollector collector(options.k);
  for (const Candidate& c : candidates) {
    const double score = EvaluateInterestingness(
        options.measure, static_cast<uint32_t>(c.count), dict_.df(c.phrase),
        subset.size(), num_docs_);
    collector.Offer(c.phrase, score, score);
  }
  result.peak_candidates = candidates.size();
  result.phrases = collector.Take();
  result.compute_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace phrasemine
