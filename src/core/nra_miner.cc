#include "core/nra_miner.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/cancel.h"
#include "common/check.h"
#include "common/slot_table.h"
#include "common/stopwatch.h"
#include "core/delta_index.h"
#include "core/exact_miner.h"
#include "obs/trace.h"
#include "testing/failpoint.h"

namespace phrasemine {

namespace {

constexpr double kPlusInfinity = std::numeric_limits<double>::infinity();

/// Per-list traversal state.
struct ListState {
  const PhraseId* ids = nullptr;  // the packed score-ordered list
  const double* probs = nullptr;
  TermId term = kInvalidTermId;
  std::size_t pos = 0;        // next entry to read
  std::size_t limit = 0;      // traversal cap (partial lists)
  std::size_t full_len = 0;   // untruncated length
  // Disk-tier placement, resolved once at setup (pinned: reads are free).
  DiskResidentLists::ListHandle disk = DiskResidentLists::kPinnedList;
  // Score of the last entry read; +inf until the first read so that bounds
  // stay trivially safe before every list has been touched.
  double last_score = kPlusInfinity;
};

/// Candidate bookkeeping: sum of seen scores plus a seen-list bitmask.
struct Candidate {
  uint32_t mask = 0;
  double sum = 0.0;
};

}  // namespace

NraMiner::NraMiner(const WordScoreLists& lists, const PhraseDictionary& dict)
    : lists_(lists), dict_(dict) {}

NraMiner::NraMiner(DiskResidentLists* disk_lists, const PhraseDictionary& dict)
    : lists_(disk_lists->lists()), dict_(dict), disk_lists_(disk_lists) {}

MineResult NraMiner::Mine(const Query& query, const MineOptions& options) {
  PM_CHECK_MSG(query.terms.size() <= 32, "NRA supports up to 32 query terms");
  MineResult result;
  if (disk_lists_ != nullptr) {
    disk_lists_->device().Reset();  // Cold cache per query.
    // Install this query's cancel token on the charge points and clear any
    // device error latched by a previous query.
    disk_lists_->BeginQuery(options.cancel);
  }
  if (options.trace) {
    result.trace = std::make_shared<TraceSpan>();
    result.trace->name =
        disk_lists_ != nullptr ? "mine:nra-disk" : "mine:nra";
  }
  TraceSpan* trace = result.trace.get();
  StopWatch watch;

  const QueryOperator op = query.op;
  // Score assigned to a phrase proven absent from a (fully read) list:
  // P(q|p) = 0 contributes 0 to an OR sum and log(0) = -inf to an AND sum.
  const double absent_score =
      op == QueryOperator::kOr ? 0.0 : kMinusInfinity;

  // --- List setup -----------------------------------------------------------
  const std::size_t r = query.terms.size();
  std::vector<ListState> lists(r);
  for (std::size_t i = 0; i < r; ++i) {
    const SoABlockList& list = lists_.list(query.terms[i]);
    lists[i].term = query.terms[i];
    lists[i].ids = list.ids();
    lists[i].probs = list.probs();
    lists[i].full_len = list.size();
    lists[i].limit = PartialLength(list.size(), options.list_fraction);
    // Empty lists register no device range and are never read.
    if (disk_lists_ != nullptr && lists[i].full_len != 0) {
      lists[i].disk = disk_lists_->ListHandleOf(query.terms[i]);
    }
  }

  // Bound on scores not yet seen from list i: while entries remain, the
  // last read score bounds them from above; at exhaustion, absence is
  // proven. A partial list is the whole index from the algorithm's point of
  // view (Section 4.3), so a truncated list that ran out behaves exactly
  // like a fully-read one -- this is also what keeps NRA and SMJ
  // result-equivalent at equal fractions, as the paper observes.
  auto list_bound = [&](const ListState& l) {
    return l.pos < l.limit ? l.last_score : absent_score;
  };

  // Candidates live in flat parallel rows: ids[row] is the phrase,
  // cands[row] its bookkeeping. The thread's dense slot table joins list
  // entries to rows; every entry this mine sets is reset before return.
  std::vector<PhraseId> ids;
  std::vector<Candidate> cands;
  std::vector<uint32_t>& slot = SlotTable(dict_.size());
  bool checknew = true;
  bool done = false;
  // Two cadences over the same b: maintenance (lines 10-13) counts the
  // reads that touch a candidate, as Algorithm 1 does, while the deadline
  // and disk-error poll counts every read -- once line 11 stops admitting
  // candidates most reads touch none, and the poll must not stall with
  // them.
  std::size_t reads_since_maintenance = 0;
  std::size_t reads_since_poll = 0;
  std::size_t admission_closed_at = 0;  // entries read when line 11 fired
  const std::size_t batch = std::max<std::size_t>(options.nra_batch_size, 1);

  const uint32_t full_mask = r >= 32 ? ~0u : ((1u << r) - 1);
  auto candidate_lower = [&](const Candidate& c) {
    if (op == QueryOperator::kOr) return c.sum;
    // AND: unseen lists can contribute arbitrarily small log factors, so
    // only fully-seen candidates have a finite lower bound.
    return c.mask == full_mask ? c.sum : kMinusInfinity;
  };
  // Upper bounds read the per-list bounds as of the last snapshot_bounds().
  std::vector<double> bounds(r);
  auto snapshot_bounds = [&]() {
    for (std::size_t i = 0; i < r; ++i) bounds[i] = list_bound(lists[i]);
  };
  auto candidate_upper = [&](const Candidate& c) {
    double upper = c.sum;
    for (std::size_t i = 0; i < r; ++i) {
      if ((c.mask & (1u << i)) == 0) upper += bounds[i];
    }
    return upper;
  };

  // Lines 10-13 of Algorithm 1, run once per batch of b reads. Each
  // candidate's bounds are computed once: `scratch` feeds the top-k
  // selection and `uppers` (indexed by row) the line-12 prune.
  struct BoundedCandidate {
    double lower;
    double upper;
    PhraseId phrase;
  };
  std::vector<BoundedCandidate> scratch;
  std::vector<double> uppers;
  auto maintenance = [&]() {
    if (options.k == 0) {
      done = true;
      return;
    }
    snapshot_bounds();
    double unseen_bound = 0.0;
    for (std::size_t i = 0; i < r; ++i) unseen_bound += bounds[i];

    const std::size_t n = ids.size();
    scratch.resize(n);
    uppers.resize(n);
    for (std::size_t row = 0; row < n; ++row) {
      const double upper = candidate_upper(cands[row]);
      uppers[row] = upper;
      scratch[row] =
          BoundedCandidate{candidate_lower(cands[row]), upper, ids[row]};
    }
    if (n < options.k) return;

    // Identify the current top-k by lower bound (ties by id, matching the
    // result tie-break).
    auto better = [](const BoundedCandidate& a, const BoundedCandidate& b) {
      if (a.lower != b.lower) return a.lower > b.lower;
      return a.phrase < b.phrase;
    };
    std::nth_element(scratch.begin(), scratch.begin() + (options.k - 1),
                     scratch.end(), better);
    const double kth_lower = scratch[options.k - 1].lower;
    if (kth_lower == kMinusInfinity) return;

    // Line 11: stop admitting unseen candidates once they cannot win.
    if (checknew && kth_lower >= unseen_bound) {
      checknew = false;
      admission_closed_at = result.entries_read;
    }

    // Line 12: drop candidates whose ceiling is below the k-th floor,
    // compacting the rows in place and clearing the dropped slots.
    std::size_t kept = 0;
    for (std::size_t row = 0; row < n; ++row) {
      if (uppers[row] < kth_lower) {
        slot[ids[row]] = kNoSlot;
        continue;
      }
      if (kept != row) {
        ids[kept] = ids[row];
        cands[kept] = cands[row];
        slot[ids[kept]] = static_cast<uint32_t>(kept);
      }
      ++kept;
    }
    ids.resize(kept);
    cands.resize(kept);

    // Line 13: the current top-k is final once no unseen phrase can beat
    // the k-th floor and no candidate outside the top-k can either.
    if (kth_lower >= unseen_bound) {
      double max_outside_upper = kMinusInfinity;
      for (std::size_t i = options.k; i < n; ++i) {
        max_outside_upper = std::max(max_outside_upper, scratch[i].upper);
      }
      if (max_outside_upper <= kth_lower) done = true;
    }
  };

  // --- Round-robin consumption (lines 4-13) ---------------------------------
  const double traversal_start =
      trace != nullptr ? watch.ElapsedMillis() : 0.0;
  if (CancelExpired(options.cancel)) {
    result.status = Status::DeadlineExceeded("deadline expired before NRA traversal");
    done = true;
  }
  while (!done) {
    bool read_any = false;
    for (std::size_t i = 0; i < r && !done; ++i) {
      ListState& l = lists[i];
      if (l.pos >= l.limit) continue;
      read_any = true;
      const PhraseId phrase = l.ids[l.pos];
      double prob = l.probs[l.pos];
      if (disk_lists_ != nullptr) {
        disk_lists_->ChargeListRead(l.disk, l.pos);
      }
      ++l.pos;
      ++result.entries_read;
      if (++reads_since_poll >= batch) {
        reads_since_poll = 0;
        // One deadline/latch poll per nra_batch_size entry reads bounds
        // both the cancellation latency and the steady-state overhead.
        if (failpoint::Enabled()) (void)PM_FAILPOINT("miner.nra.poll");
        if (CancelExpired(options.cancel)) {
          result.status = Status::DeadlineExceeded(
              "deadline expired during NRA traversal");
          done = true;
          continue;
        }
        if (disk_lists_ != nullptr && !disk_lists_->last_error().ok()) {
          result.status = disk_lists_->last_error();
          done = true;
          continue;
        }
      }

      if (options.delta != nullptr) {
        prob = options.delta->AdjustedProb(l.term, phrase, prob);
      }
      const double score = EntryScore(prob, op);
      l.last_score = score;

      uint32_t& row = slot[phrase];
      if (row == kNoSlot) {
        if (!checknew) continue;
        row = static_cast<uint32_t>(ids.size());
        ids.push_back(phrase);
        cands.push_back(Candidate{});
        result.peak_candidates = std::max(result.peak_candidates, ids.size());
      }
      Candidate& cand = cands[row];
      const uint32_t bit = 1u << i;
      if ((cand.mask & bit) == 0) {
        cand.mask |= bit;
        cand.sum += score;
      }

      if (++reads_since_maintenance >= batch) {
        reads_since_maintenance = 0;
        maintenance();
      }
    }
    if (!read_any) break;
  }
  // A device error latched in the final sub-batch (after the last poll)
  // must still surface.
  if (result.status.ok() && disk_lists_ != nullptr &&
      !disk_lists_->last_error().ok()) {
    result.status = disk_lists_->last_error();
  }
  const double traversal_end =
      trace != nullptr ? watch.ElapsedMillis() : 0.0;
  for (const PhraseId phrase : ids) slot[phrase] = kNoSlot;

  // --- Result extraction (line 14) -------------------------------------------
  // Rank by upper bound as the paper prescribes, breaking upper-bound ties
  // by lower bound (confirmed scores ahead of same-ceiling unconfirmed
  // ones), then by id. After a full traversal lower == upper for every
  // surviving candidate, so this is simply rank-by-score.
  snapshot_bounds();
  std::vector<BoundedCandidate>& ranked = scratch;  // maintenance is over
  ranked.clear();
  for (std::size_t row = 0; row < ids.size(); ++row) {
    const double upper = candidate_upper(cands[row]);
    if (upper == kMinusInfinity) continue;  // score 0
    ranked.push_back(
        BoundedCandidate{candidate_lower(cands[row]), upper, ids[row]});
  }
  const auto rank_order = [](const BoundedCandidate& a,
                             const BoundedCandidate& b) {
    if (a.upper != b.upper) return a.upper > b.upper;
    if (a.lower != b.lower) return a.lower > b.lower;
    return a.phrase < b.phrase;
  };
  // Only the top k are returned, so a heap-select beats fully sorting the
  // surviving candidate set; the id tie-break makes rank_order a strict
  // total order, so the selected prefix is identical to a full sort's.
  if (ranked.size() > options.k) {
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(options.k),
                      ranked.end(), rank_order);
    ranked.resize(options.k);
  } else {
    std::sort(ranked.begin(), ranked.end(), rank_order);
  }
  for (const BoundedCandidate& c : ranked) {
    result.phrases.push_back(
        MinedPhrase{c.phrase, c.upper, ScoreToInterestingness(c.upper, op)});
  }

  if (disk_lists_ != nullptr && options.charge_phrase_lookups &&
      result.status.ok()) {
    for (const MinedPhrase& p : result.phrases) {
      disk_lists_->ChargePhraseLookup(p.phrase);
    }
  }

  // Traversal-depth statistic (Figure 11): fraction of the *full* lists read.
  double traversed = 0.0;
  std::size_t measured = 0;
  for (const ListState& l : lists) {
    if (l.full_len == 0) continue;
    traversed += static_cast<double>(l.pos) / static_cast<double>(l.full_len);
    ++measured;
  }
  result.lists_traversed_fraction =
      measured == 0 ? 1.0 : traversed / static_cast<double>(measured);

  result.compute_ms = watch.ElapsedMillis();
  if (disk_lists_ != nullptr) {
    const DiskStats& stats = disk_lists_->device().stats();
    result.disk_ms = stats.cost_ms;
    result.disk_io.blocks_read = stats.BlocksRead();
    result.disk_io.seeks = stats.Seeks();
    result.disk_io.bytes = stats.bytes_read;
  }
  if (trace != nullptr) {
    trace->wall_ms = result.compute_ms;
    TraceSpan* traversal = AddSpan(trace, "traversal");
    traversal->wall_ms = traversal_end - traversal_start;
    AddCounter(traversal, "entries_read",
               static_cast<double>(result.entries_read));
    AddCounter(traversal, "peak_candidates",
               static_cast<double>(result.peak_candidates));
    AddCounter(traversal, "lists_traversed_fraction",
               result.lists_traversed_fraction);
    if (!checknew) {
      AddCounter(traversal, "admission_closed_at",
                 static_cast<double>(admission_closed_at));
    }
    if (!result.status.ok()) {
      // The abort marker tests assert on: entries_at_cancel bounds how far
      // past the deadline the traversal ran (< 2 poll intervals).
      AddCounter(traversal, "cancelled", 1.0);
      AddCounter(traversal, "entries_at_cancel",
                 static_cast<double>(result.entries_read));
    }
    TraceSpan* extract = AddSpan(trace, "extract_topk");
    extract->wall_ms = result.compute_ms - traversal_end;
    AddCounter(extract, "results", static_cast<double>(result.phrases.size()));
    if (disk_lists_ != nullptr) {
      // The device charge is modeled time overlapping the traversal, not a
      // separate phase, so it hangs off the root as an accounting span.
      TraceSpan* disk = AddSpan(trace, "disk_read");
      disk->wall_ms = result.disk_ms;
      AddCounter(disk, "blocks_read",
                 static_cast<double>(result.disk_io.blocks_read));
      AddCounter(disk, "seeks", static_cast<double>(result.disk_io.seeks));
      AddCounter(disk, "bytes", static_cast<double>(result.disk_io.bytes));
    }
  }
  return result;
}

}  // namespace phrasemine
