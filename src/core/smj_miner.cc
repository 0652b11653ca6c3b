#include "core/smj_miner.h"

#include <array>

#include "common/cancel.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/delta_index.h"
#include "core/exact_miner.h"
#include "core/kernels.h"
#include "obs/trace.h"

namespace phrasemine {

namespace {

/// Attaches the one-phase SMJ trace.
void AttachSmjTrace(MineResult* result) {
  result->trace = std::make_shared<TraceSpan>();
  result->trace->name = "mine:smj";
  result->trace->wall_ms = result->compute_ms;
  TraceSpan* merge = AddSpan(result->trace.get(), "merge");
  merge->wall_ms = result->compute_ms;
  AddCounter(merge, "entries_read",
             static_cast<double>(result->entries_read));
  AddCounter(merge, "distinct_candidates",
             static_cast<double>(result->peak_candidates));
  AddCounter(merge, "results", static_cast<double>(result->phrases.size()));
  if (!result->status.ok()) {
    AddCounter(merge, "cancelled", 1.0);
    AddCounter(merge, "entries_at_cancel",
               static_cast<double>(result->entries_read));
  }
}

}  // namespace

SmjMiner::SmjMiner(const WordIdOrderedLists& lists,
                   const PhraseDictionary& dict)
    : lists_(lists), dict_(dict) {}

/// The SoA merge kernels emit each candidate phrase with its per-term
/// probability vector (list order); this function applies the delta
/// adjustment and scoring to it -- the same AndScore/OrScore calls on the
/// same values in the same order as the textbook merge, so the ranked
/// output is bitwise that merge's (the differential tests enforce it).
MineResult SmjMiner::Mine(const Query& query, const MineOptions& options) {
  PM_CHECK_MSG(query.terms.size() <= 32, "SMJ supports up to 32 query terms");
  MineResult result;
  StopWatch watch;

  const QueryOperator op = query.op;
  const std::size_t r = query.terms.size();
  static const SoABlockList kEmptyList;  // terms without a stored list
  std::array<const SoABlockList*, kernels::kMaxLists> lists;
  for (std::size_t i = 0; i < r; ++i) {
    const SoABlockList* soa = lists_.soa(query.terms[i]);
    lists[i] = soa != nullptr ? soa : &kEmptyList;
  }
  const std::span<const SoABlockList* const> span(lists.data(), r);

  TopKCollector collector(options.k);
  std::array<double, kernels::kMaxLists> adjusted;
  std::size_t distinct = 0;
  const DeltaIndex* delta = options.delta;

  // The overlay is applied per present entry, exactly as the textbook
  // merge does; absent terms contribute 0.0 without consulting it (an absent
  // (term, phrase) pair has no base count and no positive co-delta -- a
  // positive delta would have put it in the overlay's extra entries).
  auto adjust = [&](PhraseId id, const double* probs,
                    uint32_t mask) -> const double* {
    if (delta == nullptr) return probs;
    for (std::size_t i = 0; i < r; ++i) {
      adjusted[i] = (mask & (1u << i)) != 0
                        ? delta->AdjustedProb(query.terms[i], id, probs[i])
                        : 0.0;
    }
    return adjusted.data();
  };

  if (op == QueryOperator::kAnd) {
    result.entries_read = kernels::GallopingAndJoin(
        span,
        [&](PhraseId id, const double* probs, uint32_t mask) {
          ++distinct;
          const double* p = adjust(id, probs, mask);
          const double score = AndScore(std::span<const double>(p, r));
          if (score == kMinusInfinity) return;
          collector.Offer(id, score, ScoreToInterestingness(score, op));
        },
        options.cancel);
  } else {
    result.entries_read = kernels::BlockOrMerge(
        span,
        [&](PhraseId id, const double* probs, uint32_t mask) {
          ++distinct;
          const double* p = adjust(id, probs, mask);
          const double score =
              OrScore(std::span<const double>(p, r), options.or_order);
          if (score <= 0.0) return;
          collector.Offer(id, score, ScoreToInterestingness(score, op));
        },
        options.cancel);
  }

  result.peak_candidates = distinct;
  result.phrases = collector.Take();
  result.compute_ms = watch.ElapsedMillis();
  // Once the token's latch is set (by a kernel poll or a sibling shard
  // leg) the collected prefix is not a ranking.
  if (CancelRequested(options.cancel)) {
    result.status =
        Status::DeadlineExceeded("deadline expired during SMJ merge");
  }
  if (options.trace) AttachSmjTrace(&result);
  return result;
}


}  // namespace phrasemine
