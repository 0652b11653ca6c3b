// Unit-level behaviour of the NRA miner against hand-constructed word
// lists, mirroring the worked example of Figure 3 in the paper: candidate
// bounds, the checknew cutoff, and bound-based termination.

#include "core/nra_miner.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/smj_miner.h"
#include "eval/query_gen.h"
#include "gtest/gtest.h"
#include "index/word_lists.h"
#include "phrase/phrase_dictionary.h"
#include "phrase/phrase_extractor.h"
#include "storage/index_file.h"
#include "test_util.h"
#include "text/corpus.h"

namespace phrasemine {
namespace {

// Builds a fixture whose word lists are fully under test control: a small
// corpus engineered so that terms a/b co-occur with known phrase sets.
struct HandFixture {
  HandFixture() {
    // Vocabulary: a b p1 p2 p3 filler...
    // docs(p1) = {0,1}: both contain a and b        -> P(a|p1)=P(b|p1)=1
    // docs(p2) = {0,1,2,3}: a in {0,1,2}, b in {0,1,3} -> P=3/4 each
    // docs(p3) = {4,5}: only a                      -> P(a|p3)=1, P(b|p3)=0
    corpus.AddTokenized({"a", "b", "p1", "p2"});
    corpus.AddTokenized({"a", "b", "p1", "p2"});
    corpus.AddTokenized({"a", "p2", "x1"});
    corpus.AddTokenized({"b", "p2", "x2"});
    corpus.AddTokenized({"a", "p3", "x3"});
    corpus.AddTokenized({"a", "p3", "x4"});
    PhraseExtractor extractor({.max_phrase_len = 1, .min_df = 2});
    dict = extractor.Extract(corpus);
    inverted = InvertedIndex::Build(corpus);
    forward = ForwardIndex::Build(corpus, dict, ForwardStorage::kFull);
    lists = WordScoreLists::BuildAll(inverted, forward, dict);
  }

  TermId term(const char* w) const { return corpus.vocab().Lookup(w); }
  PhraseId phrase(const char* w) const { return dict.Unigram(term(w)); }

  Corpus corpus;
  PhraseDictionary dict;
  InvertedIndex inverted;
  ForwardIndex forward;
  WordScoreLists lists;
};

TEST(NraDetailTest, OrQueryRanksByProbabilitySum) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  Query q;
  q.terms = {f.term("a"), f.term("b")};
  q.op = QueryOperator::kOr;
  MineResult r = miner.Mine(q, MineOptions{.k = 3});
  ASSERT_GE(r.phrases.size(), 3u);
  // p1 (1+1=2) first; true runner-up score is 1.0 shared by several
  // unigrams ("a" and "b" themselves score 2.0 as well though!).
  // Verify p1 is ranked at score 2 and p3 scores exactly 1.0 (= P(a|p3)).
  bool found_p1 = false;
  bool found_p3 = false;
  for (const MinedPhrase& p : r.phrases) {
    if (p.phrase == f.phrase("p1")) {
      EXPECT_NEAR(p.score, 2.0, 1e-12);
      found_p1 = true;
    }
    if (p.phrase == f.phrase("p3")) {
      EXPECT_NEAR(p.score, 1.0, 1e-12);
      found_p3 = true;
    }
  }
  EXPECT_TRUE(found_p1);
  (void)found_p3;  // p3 ties with other 1.0-scored phrases; may be cut.
}

TEST(NraDetailTest, AndQueryExcludesSingleSidedPhrases) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  Query q;
  q.terms = {f.term("a"), f.term("b")};
  q.op = QueryOperator::kAnd;
  MineResult r = miner.Mine(q, MineOptions{.k = 10});
  // p3 co-occurs only with a: P(b|p3) = 0 -> log 0 = -inf -> excluded.
  for (const MinedPhrase& p : r.phrases) {
    EXPECT_NE(p.phrase, f.phrase("p3"));
  }
  // p1 present with exp(log1+log1) = 1.0; p2 with (3/4)^2 = 0.5625.
  ASSERT_FALSE(r.phrases.empty());
  bool found_p2 = false;
  for (const MinedPhrase& p : r.phrases) {
    if (p.phrase == f.phrase("p2")) {
      EXPECT_NEAR(p.interestingness, 0.5625, 1e-12);
      found_p2 = true;
    }
  }
  EXPECT_TRUE(found_p2);
}

TEST(NraDetailTest, AndInterestingnessIsProductOfProbs) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  Query q;
  q.terms = {f.term("a"), f.term("b")};
  q.op = QueryOperator::kAnd;
  MineResult r = miner.Mine(q, MineOptions{.k = 1});
  ASSERT_EQ(r.phrases.size(), 1u);
  // Top AND phrase has P(a|p)=P(b|p)=1 (several tie; all have product 1).
  EXPECT_NEAR(r.phrases[0].interestingness, 1.0, 1e-12);
}

TEST(NraDetailTest, EntriesReadBoundedByLists) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  Query q;
  q.terms = {f.term("a"), f.term("b")};
  q.op = QueryOperator::kOr;
  MineResult r = miner.Mine(q, MineOptions{.k = 2});
  const std::size_t total = f.lists.list(f.term("a")).size() +
                            f.lists.list(f.term("b")).size();
  EXPECT_LE(r.entries_read, total);
  EXPECT_GT(r.entries_read, 0u);
}

TEST(NraDetailTest, FractionZeroReadsNothing) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  Query q;
  q.terms = {f.term("a")};
  q.op = QueryOperator::kOr;
  MineResult r =
      miner.Mine(q, MineOptions{.k = 5, .list_fraction = 0.0});
  EXPECT_EQ(r.entries_read, 0u);
  EXPECT_TRUE(r.phrases.empty());
}

TEST(NraDetailTest, SingleEntryBatchStillCorrect) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  WordIdOrderedLists id_lists = WordIdOrderedLists::Build(f.lists, 1.0);
  SmjMiner smj_miner(id_lists, f.dict);
  Query q;
  q.terms = {f.term("a"), f.term("b")};
  q.op = QueryOperator::kOr;
  MineResult nra = miner.Mine(q, MineOptions{.k = 2, .nra_batch_size = 1});
  MineResult smj = smj_miner.Mine(q, MineOptions{.k = 2});
  ASSERT_EQ(nra.phrases.size(), smj.phrases.size());
  for (std::size_t i = 0; i < nra.phrases.size(); ++i) {
    EXPECT_NEAR(nra.phrases[i].score, smj.phrases[i].score, 1e-12);
  }
}

// Regression for the top-k extraction's partial_sort: with maintenance
// disabled (huge batch) every k sees the identical surviving candidate
// set, so the k-truncated ranking must be exactly the prefix of the
// all-candidates ranking -- heap-select must not perturb the order.
TEST(NraDetailTest, PartialSortSelectionMatchesFullSortPrefix) {
  MiningEngine engine = testing::MakeSmallEngine(400);
  QuerySetGenerator qgen(QueryGenOptions{.seed = 41, .num_queries = 5});
  auto queries =
      qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());
  for (Query q : queries) {
    for (const QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      q.op = op;
      const MineOptions all{.k = 100000, .nra_batch_size = 1u << 30};
      const MineResult full = engine.Mine(q, Algorithm::kNra, all);
      for (const std::size_t k : {1u, 2u, 5u, 17u}) {
        MineOptions topk = all;
        topk.k = k;
        const MineResult cut = engine.Mine(q, Algorithm::kNra, topk);
        ASSERT_EQ(cut.phrases.size(), std::min(k, full.phrases.size()));
        for (std::size_t i = 0; i < cut.phrases.size(); ++i) {
          EXPECT_EQ(cut.phrases[i].phrase, full.phrases[i].phrase);
          EXPECT_EQ(cut.phrases[i].score, full.phrases[i].score);
        }
      }
    }
  }
}

TEST(NraDetailTest, UnknownTermListYieldsEmptyForAnd) {
  HandFixture f;
  NraMiner miner(f.lists, f.dict);
  Query q;
  // "x1" has df 1 < min_df 2, so it has a list (it is a term) but no
  // phrase can satisfy AND with a term whose co-occurrences are sparse...
  // Use a vocabulary term that has a list plus one with an *empty* list:
  // term ids beyond the built set have empty lists.
  q.terms = {f.term("a"), static_cast<TermId>(f.corpus.vocab().size() - 1)};
  q.op = QueryOperator::kAnd;
  MineResult r = miner.Mine(q, MineOptions{.k = 5});
  // The second list may be empty or tiny; every returned result must have
  // a finite score.
  for (const MinedPhrase& p : r.phrases) {
    EXPECT_GT(p.interestingness, 0.0);
  }
}

/// Pins everything an NRA mine reports -- ranked ids, score and
/// interestingness bits, entries read, peak candidates and the traversal
/// fraction -- over both NRA variants, both operators, full and partial
/// lists, per-entry and default maintenance cadence, fresh and under a
/// pending delta overlay. Any change to the candidate bookkeeping that
/// moves one bit of output or one counter changes the digest.
TEST(NraDetailTest, OutputIsPinned) {
  MiningEngineOptions options;
  options.extractor.min_df = 3;
  MiningEngine engine =
      MiningEngine::Build(testing::MakeSmallSyntheticCorpus(600), options);
  QueryGenOptions gen;
  gen.num_queries = 6;
  gen.min_term_df = 8;
  gen.min_pairwise_codf = 3;
  gen.min_and_matches = 3;
  const std::vector<Query> queries = QuerySetGenerator(gen).Generate(
      engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());

  std::vector<uint64_t> words;
  auto mine_all = [&] {
    for (const Algorithm algorithm : {Algorithm::kNra, Algorithm::kNraDisk}) {
      for (const Query& base : queries) {
        for (const QueryOperator op :
             {QueryOperator::kAnd, QueryOperator::kOr}) {
          for (const double fraction : {1.0, 0.5}) {
            for (const std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
              Query query = base;
              query.op = op;
              const MineResult mined = engine.Mine(
                  query, algorithm,
                  MineOptions{.k = 5,
                              .list_fraction = fraction,
                              .nra_batch_size = batch});
              ASSERT_TRUE(mined.status.ok());
              for (const MinedPhrase& p : mined.phrases) {
                words.push_back(p.phrase);
                words.push_back(std::bit_cast<uint64_t>(p.score));
                words.push_back(std::bit_cast<uint64_t>(p.interestingness));
              }
              words.push_back(mined.entries_read);
              words.push_back(mined.peak_candidates);
              words.push_back(
                  std::bit_cast<uint64_t>(mined.lists_traversed_fraction));
            }
          }
        }
      }
    }
  };
  mine_all();
  // Re-insert copies of the first documents and delete two: the overlay
  // moves conditional probabilities on every query term.
  UpdateBatch batch;
  for (DocId d = 0; d < 20; ++d) {
    UpdateDoc doc;
    for (TermId t : engine.corpus().doc(d).tokens) {
      doc.tokens.push_back(std::string(engine.corpus().vocab().TermText(t)));
    }
    batch.inserts.push_back(std::move(doc));
  }
  batch.deletes = {2, 4};
  ASSERT_GT(engine.ApplyUpdate(batch).pending_updates, 0u);
  mine_all();
  const uint64_t digest =
      Fnv1a64(reinterpret_cast<const uint8_t*>(words.data()),
              words.size() * sizeof(uint64_t));
  EXPECT_EQ(digest, 0x77dbaadb9aa2bb0dull) << std::hex << digest;
}

}  // namespace
}  // namespace phrasemine
