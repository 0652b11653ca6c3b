#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <span>
#include <vector>

#include "core/delta_index.h"
#include "core/disk_lists.h"
#include "gtest/gtest.h"
#include "index/phrase_list_file.h"
#include "index/word_lists.h"
#include "phrase/phrase_extractor.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::Entries;
using testing::MakeTinyCorpus;

struct Fixture {
  Fixture() {
    corpus = MakeTinyCorpus();
    dict = PhraseExtractor({.max_phrase_len = 4, .min_df = 2}).Extract(corpus);
    inverted = InvertedIndex::Build(corpus);
    forward = ForwardIndex::Build(corpus, dict, ForwardStorage::kFull);
  }
  Corpus corpus;
  PhraseDictionary dict;
  InvertedIndex inverted;
  ForwardIndex forward;

  TermId term(const char* w) const { return corpus.vocab().Lookup(w); }
};

TEST(WordScoreListsTest, SortedByScoreThenId) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  for (TermId t : lists.Terms()) {
    const std::vector<ListEntry> list = Entries(lists.list(t));
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1].prob == list[i].prob) {
        EXPECT_LT(list[i - 1].phrase, list[i].phrase);
      } else {
        EXPECT_GT(list[i - 1].prob, list[i].prob);
      }
    }
  }
}

TEST(WordScoreListsTest, ProbMatchesEq13) {
  Fixture f;
  const TermId db = f.term("db");
  WordScoreLists lists = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{db});
  // P(db | "query optimization") = |docs(db) ∩ docs(qo)| / |docs(qo)| = 4/4.
  const PhraseId qo = f.dict.Find(std::vector<TermId>{
      f.term("query"), f.term("optimization")});
  ASSERT_NE(qo, kInvalidPhraseId);
  bool found = false;
  for (const ListEntry& e : Entries(lists.list(db))) {
    if (e.phrase == qo) {
      EXPECT_DOUBLE_EQ(e.prob, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // P(db | "the of") = 4/8 = 0.5 -- the stopword phrase is in all docs.
  const PhraseId theof =
      f.dict.Find(std::vector<TermId>{f.term("the"), f.term("of")});
  ASSERT_NE(theof, kInvalidPhraseId);
  for (const ListEntry& e : Entries(lists.list(db))) {
    if (e.phrase == theof) {
      EXPECT_DOUBLE_EQ(e.prob, 0.5);
    }
  }
}

TEST(WordScoreListsTest, ZeroScoresOmitted) {
  Fixture f;
  // "kernel" never co-occurs with "query optimization": the phrase must be
  // absent from kernel's list.
  const TermId kernel = f.term("kernel");
  WordScoreLists lists = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{kernel});
  const PhraseId qo = f.dict.Find(std::vector<TermId>{
      f.term("query"), f.term("optimization")});
  for (const ListEntry& e : Entries(lists.list(kernel))) {
    EXPECT_NE(e.phrase, qo);
    EXPECT_GT(e.prob, 0.0);
  }
}

TEST(WordScoreListsTest, ProbsAreValidProbabilities) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  for (TermId t : lists.Terms()) {
    for (const ListEntry& e : Entries(lists.list(t))) {
      EXPECT_GT(e.prob, 0.0);
      EXPECT_LE(e.prob, 1.0);
    }
  }
}

TEST(WordScoreListsTest, PartialPrefix) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  const TermId the = f.term("the");
  const std::size_t full = lists.list(the).size();
  ASSERT_GT(full, 4u);
  EXPECT_EQ(PartialLength(full, 0.5),
            static_cast<std::size_t>(std::ceil(0.5 * full)));
  EXPECT_EQ(PartialLength(full, 0.0), 0u);
  EXPECT_EQ(PartialLength(full, 1.0), full);
  EXPECT_EQ(PartialLength(full, 5.0), full);  // clamped
}

TEST(WordScoreListsTest, MissingTermEmpty) {
  Fixture f;
  WordScoreLists lists = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{f.term("db")});
  EXPECT_FALSE(lists.Has(f.term("kernel")));
  EXPECT_TRUE(lists.list(f.term("kernel")).empty());
}

TEST(WordScoreListsTest, InMemoryBytesAccounting) {
  // InMemoryBytes(f) is the sum over lists of ceil(f * n) entries at the
  // packed 12 bytes each.
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  EXPECT_EQ(lists.InMemoryBytes(1.0), lists.TotalEntries() * kListEntryBytes);
  EXPECT_GT(lists.InMemoryBytes(0.5), 0u);
  for (double fraction : {0.0, 0.1, 0.3, 0.5, 0.99, 1.0}) {
    std::size_t expect = 0;
    for (TermId t : lists.Terms()) {
      expect += static_cast<std::size_t>(std::ceil(
                    fraction * static_cast<double>(lists.list(t).size()))) *
                12;
    }
    EXPECT_EQ(lists.InMemoryBytes(fraction), expect) << fraction;
  }
}

TEST(WordScoreListsTest, ResidentListCostsThePackedEntrySize) {
  // The packed figure is the paper's 12 bytes (4-byte id + 8-byte prob),
  // and it is what a resident list costs: the packed SoA arrays hold
  // exactly that per entry, with no padding and no skip headers.
  EXPECT_EQ(kListEntryBytes, 12u);
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  for (TermId t : lists.Terms()) {
    EXPECT_EQ(lists.ListBytes(t), lists.list(t).size() * kListEntryBytes);
    EXPECT_EQ(lists.list(t).MemoryBytes(), lists.ListBytes(t)) << t;
  }
  EXPECT_EQ(lists.ListBytes(f.term("nosuchterm")), 0u);
}

TEST(WordScoreListsTest, MergeAddsNewTermsOnly) {
  Fixture f;
  WordScoreLists a = WordScoreLists::Build(
      f.inverted, f.forward, f.dict, std::vector<TermId>{f.term("db")});
  WordScoreLists b = WordScoreLists::Build(
      f.inverted, f.forward, f.dict,
      std::vector<TermId>{f.term("db"), f.term("kernel")});
  const std::size_t db_len = a.list(f.term("db")).size();
  a.Merge(std::move(b));
  EXPECT_TRUE(a.Has(f.term("kernel")));
  EXPECT_EQ(a.list(f.term("db")).size(), db_len);
}

/// Ids equal and probs bitwise equal, entry for entry.
void ExpectBitwiseEqual(const std::vector<ListEntry>& a,
                        const std::vector<ListEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].phrase, b[i].phrase) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].prob),
              std::bit_cast<uint64_t>(b[i].prob))
        << i;
  }
}

TEST(WordScoreListsTest, SerializationRoundTrip) {
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  BinaryWriter w;
  lists.Serialize(&w);
  BinaryReader r(w.TakeBuffer());
  auto loaded = WordScoreLists::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_terms(), lists.num_terms());
  EXPECT_EQ(loaded.value().InMemoryBytes(), lists.InMemoryBytes());
  for (TermId t : lists.Terms()) {
    ASSERT_TRUE(loaded.value().Has(t));
    ExpectBitwiseEqual(Entries(loaded.value().list(t)),
                       Entries(lists.list(t)));
    EXPECT_EQ(loaded.value().list(t).MemoryBytes(), lists.ListBytes(t));
  }
}

TEST(WordScoreListsTest, PackedListEqualsBuildOneRun) {
  // Every stored list is BuildOne's AoS run, packed: same ids, same probs
  // bit for bit, same order.
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  ASSERT_GT(lists.num_terms(), 0u);
  for (TermId t : lists.Terms()) {
    const SharedWordList run =
        WordScoreLists::BuildOne(f.inverted, f.forward, f.dict, t);
    ExpectBitwiseEqual(Entries(lists.list(t)), *run);
  }
}

TEST(WordScoreListsTest, FullyPinnedTierCostsInMemoryBytes) {
  // The spill budget and the stats share one unit: a budget of exactly
  // InMemoryBytes() pins every list, and the tier then reports that
  // figure as its resident bytes.
  Fixture f;
  WordScoreLists lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  const PhraseListFile phrase_file =
      PhraseListFile::Build(f.dict, f.corpus.vocab());
  DiskTierOptions options;
  options.resident_budget_bytes = lists.InMemoryBytes();
  DiskResidentLists tier(lists, phrase_file, f.inverted, options);
  EXPECT_EQ(tier.num_resident(), lists.num_terms());
  EXPECT_EQ(tier.num_spilled(), 0u);
  EXPECT_EQ(tier.resident_bytes(), lists.InMemoryBytes());
  EXPECT_EQ(tier.spilled_bytes(), 0u);
}

TEST(WordIdOrderedListsTest, OrderedById) {
  Fixture f;
  WordScoreLists score_lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  WordIdOrderedLists id_lists = WordIdOrderedLists::Build(score_lists, 1.0);
  for (TermId t : score_lists.Terms()) {
    const SoABlockList* list = id_lists.soa(t);
    ASSERT_NE(list, nullptr);
    for (std::size_t i = 1; i < list->size(); ++i) {
      EXPECT_LT(list->ids()[i - 1], list->ids()[i]);
    }
    EXPECT_EQ(list->size(), score_lists.list(t).size());
  }
}

TEST(WordIdOrderedListsTest, FractionTruncatesTopScores) {
  Fixture f;
  WordScoreLists score_lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  WordIdOrderedLists id_lists = WordIdOrderedLists::Build(score_lists, 0.3);
  EXPECT_DOUBLE_EQ(id_lists.fraction(), 0.3);
  for (TermId t : score_lists.Terms()) {
    const SoABlockList& full = score_lists.list(t);
    const auto prefix = Entries(full, PartialLength(full.size(), 0.3));
    const SoABlockList* list = id_lists.soa(t);
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), prefix.size());
    // Same multiset of entries, different order.
    std::vector<PhraseId> a, b(list->ids(), list->ids() + list->size());
    for (const auto& e : prefix) a.push_back(e.phrase);
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b);
  }
  EXPECT_LE(id_lists.TotalEntries(), score_lists.TotalEntries());
}

/// Every id and prob of `list` equals `expect` entry for entry, and every
/// position's block header is the max id of its 128-entry block.
void ExpectSoAEquals(const SoABlockList& list,
                     const std::vector<ListEntry>& expect) {
  ASSERT_EQ(list.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(list.ids()[i], expect[i].phrase) << i;
    EXPECT_EQ(list.probs()[i], expect[i].prob) << i;
    const std::size_t block_end =
        std::min(expect.size(), (i / SoABlockList::kBlockEntries + 1) *
                                    SoABlockList::kBlockEntries);
    EXPECT_EQ(list.BlockMaxAt(i), expect[block_end - 1].phrase) << i;
  }
}

TEST(SoABlockListTest, MergedEqualsStdMergeAcrossBlockBoundaries) {
  // 300 even-id base entries and 60 odd-id extras: the merged list spans
  // three blocks, and extras land on both sides of each block boundary.
  std::vector<ListEntry> base;
  for (PhraseId p = 0; p < 600; p += 2) {
    base.push_back(ListEntry{p, 1.0 / (1.0 + p)});
  }
  std::vector<ListEntry> extras;
  for (PhraseId p = 1; p < 600; p += 10) extras.push_back(ListEntry{p, 0.0});
  extras.push_back(ListEntry{601, 0.0});  // past the base's last id
  std::vector<ListEntry> expect;
  std::merge(base.begin(), base.end(), extras.begin(), extras.end(),
             std::back_inserter(expect),
             [](const ListEntry& a, const ListEntry& b) {
               return a.phrase < b.phrase;
             });
  ASSERT_GT(expect.size(), 2 * SoABlockList::kBlockEntries);
  const SoABlockList packed = SoABlockList::FromIdOrdered(base);
  ExpectSoAEquals(SoABlockList::Merged(packed, extras), expect);
  ExpectSoAEquals(SoABlockList::Merged(packed, {}), base);
  ExpectSoAEquals(SoABlockList::Merged(SoABlockList(), extras), extras);
}

TEST(WordIdOrderedListsTest, DeltaOverlayMergesExtrasIntoTheSoAList) {
  Fixture f;
  WordScoreLists score_lists =
      WordScoreLists::BuildAll(f.inverted, f.forward, f.dict);
  WordIdOrderedLists id_lists = WordIdOrderedLists::Build(score_lists, 1.0);
  const TermId kernel = f.term("kernel");
  const SharedSoAList base = id_lists.shared_soa(kernel);
  ASSERT_NE(base, nullptr);

  // No delta-only pair for the term: the overlay hands back the base
  // pointer itself (the SMJ bundle then shares the cached list).
  DeltaIndex delta(f.dict);
  EXPECT_EQ(delta.OverlayIdOrdered(kernel, base), base);
  const std::vector<TermId> again = f.corpus.doc(4).tokens;  // kernel doc
  delta.AddDocument(again);
  EXPECT_EQ(delta.OverlayIdOrdered(kernel, base), base);

  // "query optimization" never co-occurred with "kernel": the insert makes
  // the pair positive purely through the update.
  const std::vector<TermId> fresh = {kernel, f.term("query"),
                                     f.term("optimization")};
  delta.AddDocument(fresh);
  const std::span<const PhraseId> base_ids(base->ids(), base->size());
  const std::vector<ListEntry> extras =
      delta.ExtraIdOrderedEntries(kernel, base_ids);
  ASSERT_FALSE(extras.empty());
  const SharedSoAList overlaid = delta.OverlayIdOrdered(kernel, base);
  ASSERT_NE(overlaid, base);
  std::vector<ListEntry> base_entries;
  for (std::size_t i = 0; i < base->size(); ++i) {
    base_entries.push_back(ListEntry{base->ids()[i], base->probs()[i]});
  }
  std::vector<ListEntry> expect;
  std::merge(base_entries.begin(), base_entries.end(), extras.begin(),
             extras.end(), std::back_inserter(expect),
             [](const ListEntry& a, const ListEntry& b) {
               return a.phrase < b.phrase;
             });
  ExpectSoAEquals(*overlaid, expect);

  // A term without a stored list overlays onto an empty one.
  const SharedSoAList none = delta.OverlayIdOrdered(kernel, nullptr);
  ASSERT_NE(none, nullptr);
  ExpectSoAEquals(*none, delta.ExtraIdOrderedEntries(kernel, {}));
}

}  // namespace
}  // namespace phrasemine
