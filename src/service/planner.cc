#include "service/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "core/disk_lists.h"
#include "index/list_entry.h"

namespace phrasemine {

namespace {

/// Appends "name=1.2e+04" style cost renderings to the reason line.
std::string FormatCost(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", cost);
  return buf;
}

}  // namespace

std::string PlanDecision::ToString() const {
  std::string out = AlgorithmName(algorithm);
  out += " (";
  out += QueryOperatorName(op);
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", r=%zu, k=%zu, |D'|~%zu", terms.size(), k,
                estimated_subcollection);
  out += buf;
  out += "): ";
  out += reason;
  if (!estimated_costs.empty()) {
    out += " [";
    for (std::size_t i = 0; i < estimated_costs.size(); ++i) {
      if (i > 0) out += ", ";
      out += AlgorithmName(estimated_costs[i].first);
      out += "=";
      out += FormatCost(estimated_costs[i].second);
    }
    out += "]";
  }
  return out;
}

PlannerInputs CostPlanner::GatherInputs(const MiningEngine& engine,
                                        const Query& query,
                                        const MineOptions& options,
                                        const EpochDelta& snap) {
  // The overlay corrects the document-frequency inputs, so selectivity
  // estimates stay honest as updates accumulate between rebuilds. The
  // stats gathering runs under the engine's shared structure lock so a
  // concurrent rebuild cannot swap the indexes mid-read.
  const DeltaIndex* delta =
      snap.delta != nullptr && snap.delta->pending_updates() > 0
          ? snap.delta.get()
          : nullptr;
  PlannerInputs inputs = engine.WithSharedStructures([&] {
    PlannerInputs gathered;
    const int64_t docs_delta = delta != nullptr ? delta->DocsDelta() : 0;
    const auto base_docs = static_cast<int64_t>(engine.corpus().size());
    gathered.num_docs = static_cast<std::size_t>(
        std::max<int64_t>(base_docs + docs_delta, 0));
    gathered.avg_doc_phrases = engine.avg_doc_phrases();
    gathered.op = query.op;
    gathered.k = options.k;
    gathered.updates_pending = delta != nullptr;
    gathered.disk_backed = engine.options().disk_backed;
    // Disk-backed engines: the tier's spill policy over the engine's
    // currently built lists (exactly what the next kNraDisk mine will
    // place -- a word-list merge invalidates and re-places). Memoized
    // inside the engine, so per-query planning pays a hash lookup per
    // term, not the O(T log T) policy. Safe here: this lambda runs
    // under the shared structure lock.
    std::shared_ptr<const std::unordered_set<TermId>> resident;
    if (gathered.disk_backed) resident = engine.ResidentSetLocked();
    // Observed-popularity priors (feedback-driven placement): the same
    // snapshot the spill policy orders by, so on_disk below predicts the
    // re-placed tier, not the static-df one.
    const std::shared_ptr<const TermPopularity> observed =
        engine.TermPopularityLocked();
    const std::size_t block_bytes =
        std::max<std::size_t>(engine.options().disk.page_size_bytes, 1);
    gathered.terms.reserve(query.terms.size());
    for (TermId t : query.terms) {
      TermPlanStats stats;
      stats.term = t;
      int64_t df = engine.inverted().df(t);
      if (delta != nullptr) df += delta->TermDfDelta(t);
      stats.df = static_cast<uint32_t>(std::max<int64_t>(df, 0));
      if (observed != nullptr) {
        auto it = observed->find(t);
        if (it != observed->end()) stats.observed_queries = it->second;
      }
      // The engine's own lazy lists, safe to read here because this
      // lambda runs under the structure lock.
      if (engine.word_lists().Has(t)) {
        stats.list_built = true;
        stats.list_length = engine.word_lists().list(t).size();
      } else {
        // A term's list holds the distinct phrases co-occurring with it,
        // bounded by the total phrase occurrences across docs(term).
        stats.list_built = false;
        stats.list_length = static_cast<std::size_t>(std::min<double>(
            static_cast<double>(engine.dict().size()),
            static_cast<double>(stats.df) * gathered.avg_doc_phrases));
      }
      if (gathered.disk_backed) {
        // A built list is spilled when the policy left it out of the
        // resident set; an unbuilt list predicts as spilled (the policy
        // pins only what the budget provably covers, and a cold list
        // joins the placement at its df rank once built). Blocks cover
        // the packed on-device footprint at the estimated length.
        const bool built_on_engine = engine.word_lists().Has(t);
        stats.on_disk = !(built_on_engine && resident->contains(t));
        if (stats.on_disk) {
          stats.disk_blocks =
              (static_cast<uint64_t>(stats.list_length) * kListEntryBytes +
               block_bytes - 1) /
              block_bytes;
        }
      }
      gathered.terms.push_back(stats);
    }
    return gathered;
  });
  return inputs;
}

namespace {

/// Sub-collection estimate plus the zero-df flag the decision procedure
/// branches on.
struct SubcollectionEstimate {
  double est = 0.0;
  bool has_zero_df = false;
};

/// Sub-collection estimate (Eq. 2). AND uses exponential-backoff
/// selectivity (exponents 1, 1/2, 1/4, ... over ascending selectivities):
/// query terms are topically correlated, so plain independence
/// multiplication collapses every multi-term estimate toward zero and
/// would mis-route everything to Exact.
SubcollectionEstimate EstimateSubcollection(const PlannerInputs& inputs) {
  SubcollectionEstimate out;
  const double n = static_cast<double>(inputs.num_docs);
  if (inputs.op == QueryOperator::kAnd) {
    std::vector<double> selectivities;
    selectivities.reserve(inputs.terms.size());
    for (const TermPlanStats& t : inputs.terms) {
      if (t.df == 0) out.has_zero_df = true;
      selectivities.push_back(n == 0.0 ? 0.0
                                       : static_cast<double>(t.df) / n);
    }
    std::sort(selectivities.begin(), selectivities.end());
    out.est = n;
    double exponent = 1.0;
    for (double s : selectivities) {
      out.est *= std::pow(s, exponent);
      exponent *= 0.5;
    }
    if (out.has_zero_df) out.est = 0.0;
    if (!out.has_zero_df && !inputs.terms.empty() && out.est < 1.0) {
      out.est = 1.0;
    }
  } else {
    for (const TermPlanStats& t : inputs.terms) {
      out.est += static_cast<double>(t.df);
    }
    out.est = std::min(out.est, n);
  }
  return out;
}

/// Modeled cost of every candidate algorithm ({Exact,} NRA, SMJ; Exact is
/// excluded while updates are pending -- it would mine the base corpus).
/// On a disk-backed engine the NRA candidate is emitted as kNraDisk and
/// both list methods carry per-block I/O terms for their spilled inputs
/// (see the routing rule in the CostPlanner class comment).
std::vector<std::pair<Algorithm, double>> EstimateCosts(
    const PlannerInputs& inputs, const PlannerOptions& options, double est) {
  double total_list_entries = 0.0;
  double build_charge = 0.0;
  for (const TermPlanStats& t : inputs.terms) {
    total_list_entries += static_cast<double>(t.list_length);
    if (!t.list_built) {
      // Building scans the forward lists of docs(term).
      build_charge += static_cast<double>(t.df) * inputs.avg_doc_phrases *
                      options.build_amortization;
    }
  }
  const double or_factor =
      inputs.op == QueryOperator::kOr ? options.or_overhead : 1.0;
  const double traversal =
      std::min(1.0, options.nra_traversal_fraction +
                        options.nra_k_penalty * static_cast<double>(inputs.k));

  // Disk terms over the spilled lists: NRA-disk reads the traversed
  // prefix of each list's blocks, at the random rate when its
  // round-robin head interleaves more than one *spilled* list file
  // (reads of a single on-device file advance in order and stream at
  // the sequential rate, however many pinned lists interleave); SMJ
  // streams every spilled list once, sequentially. Resident lists
  // charge nothing.
  double nra_disk_io = 0.0;
  double smj_disk_io = 0.0;
  if (inputs.disk_backed) {
    // Only lists that actually occupy device blocks interleave: the tier
    // registers no file for an empty list, so a zero-block "spilled"
    // term (df 0, or an unbuilt estimate rounding to nothing) must not
    // flip the remaining reads to the random rate.
    std::size_t spilled = 0;
    for (const TermPlanStats& t : inputs.terms) {
      spilled += (t.on_disk && t.disk_blocks > 0) ? 1 : 0;
    }
    const double nra_block_cost = spilled > 1
                                      ? options.disk_random_block_cost
                                      : options.disk_sequential_block_cost;
    for (const TermPlanStats& t : inputs.terms) {
      if (!t.on_disk) continue;
      const double blocks = static_cast<double>(t.disk_blocks);
      nra_disk_io += std::ceil(traversal * blocks) * nra_block_cost;
      smj_disk_io += blocks * options.disk_sequential_block_cost;
    }
  }

  const double cost_exact =
      est * inputs.avg_doc_phrases * options.exact_entry_cost;
  const double cost_nra = options.nra_fixed_cost +
                          total_list_entries * traversal *
                              options.nra_entry_cost * or_factor +
                          build_charge + nra_disk_io;
  const double cost_smj = options.smj_fixed_cost +
                          total_list_entries * options.smj_entry_cost *
                              or_factor +
                          build_charge + smj_disk_io;

  std::vector<std::pair<Algorithm, double>> costs;
  if (!inputs.updates_pending) {
    costs.emplace_back(Algorithm::kExact, cost_exact);
  }
  costs.emplace_back(
      inputs.disk_backed ? Algorithm::kNraDisk : Algorithm::kNra, cost_nra);
  costs.emplace_back(Algorithm::kSmj, cost_smj);
  return costs;
}

/// Shared tail of every cost-based decision: argmin over
/// decision->estimated_costs (which must be non-empty), a
/// "<prefix><Algo> cheapest (<cost>)" reason, and the pending-updates
/// note. Keeps the single-engine and sharded plan output in lockstep.
void FinishCostDecision(PlanDecision* decision, bool updates_pending,
                        const std::string& reason_prefix) {
  decision->algorithm = decision->estimated_costs.front().first;
  double best = decision->estimated_costs.front().second;
  for (const auto& [algorithm, cost] : decision->estimated_costs) {
    if (cost < best) {
      decision->algorithm = algorithm;
      best = cost;
    }
  }
  decision->reason = reason_prefix + AlgorithmName(decision->algorithm) +
                     " cheapest (" + FormatCost(best) + ")";
  if (updates_pending) {
    decision->reason += ", pending updates restrict to delta-corrected methods";
  }
}

}  // namespace

PlanDecision CostPlanner::PlanFromInputs(const PlannerInputs& inputs,
                                         const PlannerOptions& options) {
  PlanDecision decision;
  decision.op = inputs.op;
  decision.k = inputs.k;
  decision.terms = inputs.terms;

  const SubcollectionEstimate subcollection = EstimateSubcollection(inputs);
  const double est = subcollection.est;
  const bool has_zero_df = subcollection.has_zero_df;
  decision.estimated_subcollection = static_cast<std::size_t>(std::llround(est));

  // --- Degenerate and exact-only cases -------------------------------------
  if (inputs.terms.empty()) {
    decision.algorithm = Algorithm::kExact;
    decision.reason = "empty query: nothing to aggregate, Exact returns fast";
    return decision;
  }
  if (inputs.op == QueryOperator::kAnd && has_zero_df) {
    if (inputs.updates_pending && options.allow_approximate) {
      // The (delta-corrected) df hit zero through updates; Exact would
      // mine the base corpus and could serve a stale non-empty answer.
      // SMJ over the delta-corrected lists yields the true (empty) result.
      decision.algorithm = Algorithm::kSmj;
      decision.reason =
          "zero-df term under AND with pending updates: delta-corrected SMJ";
      return decision;
    }
    decision.algorithm = Algorithm::kExact;
    decision.reason = "empty subcollection (zero-df term under AND)";
    return decision;
  }
  if (!options.allow_approximate) {
    decision.algorithm = Algorithm::kExact;
    decision.reason = "approximation disallowed: Exact (forward scan)";
    return decision;
  }
  if (!inputs.updates_pending &&
      decision.estimated_subcollection <=
          options.exact_subcollection_threshold) {
    decision.algorithm = Algorithm::kExact;
    decision.reason = "tiny subcollection: exact forward scan is cheapest";
    return decision;
  }

  // --- Cost model over {Exact, NRA(-disk), SMJ} -----------------------------
  // Exact mines the base corpus; with an unrebuilt overlay it would serve
  // stale answers, so the argmin is then restricted to NRA(-disk)/SMJ.
  // On a disk-backed engine the NRA candidate is kNraDisk with I/O terms.
  decision.estimated_costs = EstimateCosts(inputs, options, est);
  FinishCostDecision(&decision, inputs.updates_pending, "cost: ");
  return decision;
}

PlanDecision CostPlanner::PlanAcrossShards(
    std::span<const PlannerInputs> shards, const PlannerOptions& options) {
  PM_CHECK_MSG(!shards.empty(), "PlanAcrossShards requires at least one shard");
  if (shards.size() == 1) return PlanFromInputs(shards.front(), options);

  // Aggregate to global inputs over the disjoint partition: dfs, doc
  // counts and list lengths sum; avg_doc_phrases is doc-weighted; a list
  // counts as built only when every shard has it.
  PlannerInputs aggregate = shards.front();
  aggregate.num_docs = 0;
  aggregate.avg_doc_phrases = 0.0;
  aggregate.updates_pending = false;
  aggregate.disk_backed = false;
  for (TermPlanStats& t : aggregate.terms) {
    t.df = 0;
    t.list_length = 0;
    t.list_built = true;
    t.on_disk = false;
    t.disk_blocks = 0;
  }
  for (const PlannerInputs& shard : shards) {
    PM_CHECK_MSG(shard.terms.size() == aggregate.terms.size(),
                 "shard inputs must describe the same query");
    aggregate.num_docs += shard.num_docs;
    aggregate.avg_doc_phrases +=
        shard.avg_doc_phrases * static_cast<double>(shard.num_docs);
    aggregate.updates_pending |= shard.updates_pending;
    aggregate.disk_backed |= shard.disk_backed;
    for (std::size_t i = 0; i < aggregate.terms.size(); ++i) {
      aggregate.terms[i].df += shard.terms[i].df;
      aggregate.terms[i].list_length += shard.terms[i].list_length;
      aggregate.terms[i].list_built &= shard.terms[i].list_built;
      // Disk placement: a term counts as spilled fleet-wide when any
      // shard spilled it, and the aggregate block count sums the
      // per-shard footprints (only used by the aggregate short-circuit
      // costs; the makespan below charges each shard its own blocks).
      aggregate.terms[i].on_disk |= shard.terms[i].on_disk;
      aggregate.terms[i].disk_blocks += shard.terms[i].disk_blocks;
      // Observed counts are broadcast fleet-wide (one service-level
      // snapshot per shard), so max -- not sum -- recovers the global
      // prior without multiplying it by the shard count.
      aggregate.terms[i].observed_queries =
          std::max(aggregate.terms[i].observed_queries,
                   shard.terms[i].observed_queries);
    }
  }
  if (aggregate.num_docs > 0) {
    aggregate.avg_doc_phrases /= static_cast<double>(aggregate.num_docs);
  }

  char prefix[48];
  std::snprintf(prefix, sizeof(prefix), "sharded(%zu): ", shards.size());

  PlanDecision decision = PlanFromInputs(aggregate, options);
  if (decision.estimated_costs.empty()) {
    // A decision-procedure short-circuit (empty query, zero global df,
    // approximation disallowed, tiny sub-collection) depends only on the
    // aggregated inputs; keep it.
    decision.reason = prefix + decision.reason;
    return decision;
  }

  // Cost-based choice: shards mine in parallel, so each algorithm's
  // modeled latency is the *slowest* shard's cost (makespan), not the
  // aggregate -- a skewed shard can flip the decision.
  std::vector<std::pair<Algorithm, double>> merged;
  for (const PlannerInputs& shard : shards) {
    const SubcollectionEstimate est = EstimateSubcollection(shard);
    // The aggregate decides Exact's eligibility: one shard with pending
    // updates makes the merged result stale wherever Exact would run. The
    // aggregate likewise decides the NRA candidate's identity: one
    // disk-backed shard routes the whole fleet through kNraDisk, so
    // every shard's cost lands under the same algorithm label (shards
    // without spilled lists simply contribute no I/O term).
    PlannerInputs costed = shard;
    costed.updates_pending = aggregate.updates_pending;
    costed.disk_backed = aggregate.disk_backed;
    for (const auto& [algorithm, cost] :
         EstimateCosts(costed, options, est.est)) {
      // Without an overlay Exact is eligible, and both are exhaustive
      // fleet merges: SMJ ships every shard's whole list union where
      // Exact ships sub-collection counts, and SMJ was more than 10%
      // faster on at most 1 of 300 measured fleet queries. Drop SMJ.
      if (algorithm == Algorithm::kSmj && !aggregate.updates_pending) {
        continue;
      }
      auto it = std::find_if(merged.begin(), merged.end(),
                             [a = algorithm](const auto& entry) {
                               return entry.first == a;
                             });
      if (it == merged.end()) {
        merged.emplace_back(algorithm, cost);
      } else {
        it->second = std::max(it->second, cost);
      }
    }
  }
  decision.estimated_costs = std::move(merged);
  FinishCostDecision(&decision, aggregate.updates_pending,
                     std::string(prefix) + "makespan cost: ");
  return decision;
}

}  // namespace phrasemine
