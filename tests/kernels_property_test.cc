// Property tests for the hot-path kernel layer (core/kernels.h): the
// galloping AND join, the block OR merge, the sorted-probe gather and the
// doc-id intersection/union kernels are pitted against naive reference
// merges across adversarial list shapes -- empty lists, one-element lists,
// 1:1000 length skew, all-equal ids -- and the kernel-path SMJ miner is
// differentially compared against the textbook scalar merge
// (smj_reference.h), with and without delta overlays and under
// partial-list fractions.

#include "core/kernels.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "eval/query_gen.h"
#include "index/inverted_index.h"
#include "index/word_lists.h"
#include "smj_reference.h"
#include "test_util.h"

namespace phrasemine {
namespace {

// --- List generators ---------------------------------------------------------

/// Sorted unique ids drawn from [0, universe), with random probs in (0, 1].
std::vector<ListEntry> RandomList(Rng& rng, std::size_t size,
                                  PhraseId universe) {
  std::set<PhraseId> ids;
  while (ids.size() < size && ids.size() < universe) {
    ids.insert(static_cast<PhraseId>(rng.NextBelow(universe)));
  }
  std::vector<ListEntry> list;
  list.reserve(ids.size());
  for (PhraseId id : ids) {
    list.push_back(ListEntry{id, 1.0 - rng.NextDouble()});
  }
  return list;
}

struct Emitted {
  PhraseId id;
  std::vector<double> probs;
  uint32_t mask;
  bool operator==(const Emitted&) const = default;
};

/// Naive reference k-way merge: every distinct id in increasing order with
/// per-list probs (0.0 where absent); `require_all` keeps only ids present
/// in every list (the AND contract).
std::vector<Emitted> ReferenceMerge(
    const std::vector<std::vector<ListEntry>>& lists, bool require_all) {
  std::map<PhraseId, Emitted> by_id;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (const ListEntry& e : lists[i]) {
      auto [it, inserted] = by_id.try_emplace(
          e.phrase,
          Emitted{e.phrase, std::vector<double>(lists.size(), 0.0), 0});
      it->second.probs[i] = e.prob;
      it->second.mask |= 1u << i;
    }
  }
  std::vector<Emitted> out;
  const uint32_t full =
      lists.size() >= 32 ? ~0u : ((1u << lists.size()) - 1);
  for (auto& [id, e] : by_id) {
    if (require_all && e.mask != full) continue;
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<Emitted> RunKernel(const std::vector<std::vector<ListEntry>>& raw,
                               bool and_join) {
  std::vector<SoABlockList> soa;
  soa.reserve(raw.size());
  for (const auto& l : raw) {
    soa.push_back(SoABlockList::FromIdOrdered(l));
  }
  std::vector<const SoABlockList*> ptrs;
  for (const auto& l : soa) ptrs.push_back(&l);
  std::vector<Emitted> out;
  auto emit = [&](PhraseId id, const double* probs, uint32_t mask) {
    out.push_back(Emitted{
        id, std::vector<double>(probs, probs + raw.size()), mask});
  };
  if (and_join) {
    kernels::GallopingAndJoin(ptrs, emit);
  } else {
    kernels::BlockOrMerge(ptrs, emit);
  }
  return out;
}

void ExpectMergesMatch(const std::vector<std::vector<ListEntry>>& lists) {
  EXPECT_EQ(RunKernel(lists, /*and_join=*/true),
            ReferenceMerge(lists, /*require_all=*/true));
  EXPECT_EQ(RunKernel(lists, /*and_join=*/false),
            ReferenceMerge(lists, /*require_all=*/false));
}

// --- Merge kernels vs naive reference ---------------------------------------

TEST(KernelMergeTest, RandomizedShapes) {
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const std::size_t r = 1 + rng.NextBelow(5);
    const PhraseId universe =
        static_cast<PhraseId>(16 + rng.NextBelow(4000));
    std::vector<std::vector<ListEntry>> lists;
    for (std::size_t i = 0; i < r; ++i) {
      lists.push_back(
          RandomList(rng, rng.NextBelow(universe + 1), universe));
    }
    ExpectMergesMatch(lists);
  }
}

TEST(KernelMergeTest, EmptyAndSingleElementLists) {
  Rng rng(11);
  const std::vector<ListEntry> empty;
  const std::vector<ListEntry> one{{42, 0.5}};
  const std::vector<ListEntry> other{{41, 0.25}, {42, 0.75}, {43, 0.125}};
  ExpectMergesMatch({empty});
  ExpectMergesMatch({empty, empty});
  ExpectMergesMatch({one});
  ExpectMergesMatch({one, empty});
  ExpectMergesMatch({empty, one, other});
  ExpectMergesMatch({one, other});
  ExpectMergesMatch({other, RandomList(rng, 300, 400), empty});
}

TEST(KernelMergeTest, SkewedLengths1To1000) {
  Rng rng(13);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::vector<ListEntry>> lists;
    lists.push_back(RandomList(rng, 5, 100000));
    lists.push_back(RandomList(rng, 5000, 100000));
    lists.push_back(RandomList(rng, 5000, 100000));
    // Force some intersection so the AND side is non-trivial.
    for (const ListEntry& e : lists[0]) {
      for (std::size_t i = 1; i < lists.size(); ++i) {
        if (rng.NextBool(0.5)) continue;
        auto& l = lists[i];
        auto pos = std::lower_bound(
            l.begin(), l.end(), e.phrase,
            [](const ListEntry& a, PhraseId p) { return a.phrase < p; });
        if (pos == l.end() || pos->phrase != e.phrase) {
          l.insert(pos, ListEntry{e.phrase, 0.5});
        }
      }
    }
    ExpectMergesMatch(lists);
  }
}

TEST(KernelMergeTest, AllEqualIds) {
  std::vector<ListEntry> same;
  for (PhraseId p = 0; p < 700; ++p) same.push_back({p * 3, 0.25});
  ExpectMergesMatch({same, same});
  ExpectMergesMatch({same, same, same, same});
}

// --- SkipTo / gather ---------------------------------------------------------

TEST(KernelSkipToTest, MatchesLowerBound) {
  Rng rng(17);
  const std::vector<ListEntry> entries = RandomList(rng, 3000, 50000);
  const SoABlockList soa = SoABlockList::FromIdOrdered(entries);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t from = rng.NextBelow(entries.size() + 1);
    const PhraseId target = static_cast<PhraseId>(rng.NextBelow(51000));
    const auto expect = static_cast<std::size_t>(
        std::lower_bound(entries.begin() + static_cast<std::ptrdiff_t>(from),
                         entries.end(), target,
                         [](const ListEntry& e, PhraseId t) {
                           return e.phrase < t;
                         }) -
        entries.begin());
    EXPECT_EQ(soa.SkipTo(from, target), expect) << from << " " << target;
  }
}

TEST(KernelGatherTest, MatchesLinearLookup) {
  Rng rng(19);
  for (int round = 0; round < 10; ++round) {
    const std::vector<ListEntry> entries =
        RandomList(rng, rng.NextBelow(2000), 20000);
    const SoABlockList soa = SoABlockList::FromIdOrdered(entries);
    std::set<PhraseId> probe_set;
    for (int i = 0; i < 300; ++i) {
      probe_set.insert(static_cast<PhraseId>(rng.NextBelow(21000)));
    }
    const std::vector<PhraseId> probes(probe_set.begin(), probe_set.end());
    std::vector<double> got(probes.size(), -1.0);
    kernels::GatherProbes(soa, probes, got.data());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      double expect = 0.0;
      for (const ListEntry& e : entries) {
        if (e.phrase == probes[i]) expect = e.prob;
      }
      EXPECT_EQ(got[i], expect) << "probe " << probes[i];
    }
  }
}

// --- Doc-id kernels vs InvertedIndex reference -------------------------------

TEST(KernelDocIdTest, IntersectAndUnionMatchInvertedIndex) {
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    const std::size_t r = 1 + rng.NextBelow(5);
    const PhraseId universe = static_cast<PhraseId>(8 + rng.NextBelow(3000));
    std::vector<std::vector<DocId>> docs(r);
    for (auto& list : docs) {
      std::set<DocId> ids;
      const std::size_t size = rng.NextBelow(universe + 1);
      while (ids.size() < size) {
        ids.insert(static_cast<DocId>(rng.NextBelow(universe)));
      }
      list.assign(ids.begin(), ids.end());
    }
    std::vector<const std::vector<DocId>*> ptrs;
    for (const auto& l : docs) ptrs.push_back(&l);
    EXPECT_EQ(kernels::IntersectSorted(ptrs), InvertedIndex::Intersect(ptrs));
    EXPECT_EQ(kernels::UnionSorted(ptrs), InvertedIndex::Union(ptrs));
  }
  // Degenerate shapes.
  const std::vector<DocId> empty;
  const std::vector<DocId> one{7};
  std::vector<const std::vector<DocId>*> shapes{&empty, &one};
  EXPECT_EQ(kernels::IntersectSorted(shapes), InvertedIndex::Intersect(shapes));
  EXPECT_EQ(kernels::UnionSorted(shapes), InvertedIndex::Union(shapes));
  EXPECT_TRUE(kernels::IntersectSorted({}).empty());
  EXPECT_TRUE(kernels::UnionSorted({}).empty());
}

// --- Kernel-path SMJ vs scalar reference, bitwise ----------------------------

/// The query terms' stored id-ordered lists as plain AoS runs, built from
/// the engine's score-ordered lists at `fraction` -- the reference merge's
/// input, independent of the SoA lists the engine mines.
std::vector<std::vector<ListEntry>> AoSIdOrderedLists(
    const MiningEngine& engine, const Query& query, double fraction) {
  std::vector<std::vector<ListEntry>> lists;
  for (TermId t : query.terms) {
    const SoABlockList& list = engine.word_lists().list(t);
    lists.push_back(*WordIdOrderedLists::IdOrderPrefix(
        testing::Entries(list, PartialLength(list.size(), fraction))));
  }
  return lists;
}

void ExpectBitwiseEqual(const MineResult& kernel, const MineResult& scalar) {
  ASSERT_EQ(kernel.phrases.size(), scalar.phrases.size());
  for (std::size_t i = 0; i < kernel.phrases.size(); ++i) {
    EXPECT_EQ(kernel.phrases[i].phrase, scalar.phrases[i].phrase)
        << "rank " << i;
    // Bitwise score identity, tie order included -- EXPECT_EQ on doubles,
    // not EXPECT_NEAR.
    EXPECT_EQ(kernel.phrases[i].score, scalar.phrases[i].score) << i;
    EXPECT_EQ(kernel.phrases[i].interestingness,
              scalar.phrases[i].interestingness)
        << i;
  }
}

TEST(KernelSmjDifferentialTest, MatchesScalarAcrossFractionsAndOperators) {
  MiningEngine engine = testing::MakeSmallEngine(500);
  QuerySetGenerator qgen(QueryGenOptions{.seed = 5, .num_queries = 8});
  auto queries =
      qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());
  for (const double fraction : {1.0, 0.5, 0.2}) {
    engine.SetSmjFraction(fraction);
    for (Query q : queries) {
      for (const QueryOperator op :
           {QueryOperator::kAnd, QueryOperator::kOr}) {
        q.op = op;
        for (const OrExpansionOrder order :
             {OrExpansionOrder::kFirstOrder, OrExpansionOrder::kFull}) {
          MineOptions kernel_options{.k = 10, .or_order = order};
          const MineResult kernel =
              engine.Mine(q, Algorithm::kSmj, kernel_options);
          ExpectBitwiseEqual(
              kernel, testing::ReferenceSmjMine(
                          q, AoSIdOrderedLists(engine, q, fraction), 10,
                          order));
        }
      }
    }
  }
}

TEST(KernelSmjDifferentialTest, MatchesScalarUnderDeltaOverlay) {
  MiningEngine engine = testing::MakeSmallEngine(400);
  QuerySetGenerator qgen(QueryGenOptions{.seed = 29, .num_queries = 6});
  auto queries =
      qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());

  // Build an overlay with inserts that reuse corpus vocabulary (new
  // co-occurrences of base phrases) and a few deletes.
  UpdateBatch batch;
  for (DocId d = 0; d < 30; ++d) {
    UpdateDoc doc;
    const Document& src = engine.corpus().doc(d % engine.corpus().size());
    for (TermId t : src.tokens) {
      doc.tokens.push_back(
          std::string(engine.corpus().vocab().TermText(t)));
    }
    std::reverse(doc.tokens.begin(), doc.tokens.end());
    batch.inserts.push_back(std::move(doc));
  }
  batch.deletes = {1, 3, 5};
  (void)engine.ApplyUpdate(batch);

  for (Query q : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      q.op = op;
      MineOptions kernel_options{.k = 10};
      const MineResult kernel = engine.Mine(q, Algorithm::kSmj, kernel_options);
      const MineResult scalar = testing::ReferenceSmjMine(
          q, AoSIdOrderedLists(engine, q, 1.0), 10,
          OrExpansionOrder::kFirstOrder, engine.delta_snapshot().delta.get());
      EXPECT_EQ(kernel.guarantee, UpdateGuarantee::kExactUnderDelta);
      ExpectBitwiseEqual(kernel, scalar);
    }
  }
}

}  // namespace
}  // namespace phrasemine
