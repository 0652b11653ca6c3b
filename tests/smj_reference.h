#ifndef PHRASEMINE_TESTS_SMJ_REFERENCE_H_
#define PHRASEMINE_TESTS_SMJ_REFERENCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/delta_index.h"
#include "core/miner.h"
#include "core/query.h"
#include "index/list_entry.h"

namespace phrasemine::testing {

/// The textbook entry-at-a-time k-way merge of Algorithm 2 (Section 4.4),
/// the reference the SoA merge kernels behind SmjMiner are checked
/// against. It reads plain AoS lists the caller built, so it shares no
/// code with the SoA layout it checks: `lists[i]` is query.terms[i]'s
/// stored id-ordered list.
///
/// With a `delta`, each list is first overlaid with the term's delta-only
/// entries (DeltaIndex::ExtraIdOrderedEntries, merged by id) and every
/// present entry's probability is corrected with DeltaIndex::AdjustedProb
/// -- what the engine applies to SMJ under pending updates.
MineResult ReferenceSmjMine(const Query& query,
                            std::span<const std::vector<ListEntry>> lists,
                            std::size_t k, OrExpansionOrder or_order,
                            const DeltaIndex* delta = nullptr);

}  // namespace phrasemine::testing

#endif  // PHRASEMINE_TESTS_SMJ_REFERENCE_H_
