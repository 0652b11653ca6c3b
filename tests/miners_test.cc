// Cross-algorithm behaviour of the five miners: exactness of the baselines,
// agreement of NRA and SMJ (the paper proves they compute the same function
// when run on the same fraction), bound-based early stopping, and quality
// of the independence approximation against the exact results.

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/engine.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace phrasemine {
namespace {

using testing::Ids;
using testing::MakeSmallEngine;
using testing::MakeTinyEngine;

// Recomputes a phrase's list-based score (Eq. 8 / Eq. 12) directly from the
// word lists at a given partial fraction. This is the function both NRA and
// SMJ approximate, so it is the arbiter when their tie-breaking diverges.
double FullListScore(MiningEngine& engine, const Query& q, PhraseId phrase,
                     double fraction) {
  std::vector<double> probs;
  for (TermId t : q.terms) {
    double prob = 0.0;
    const SoABlockList& list = engine.word_lists().list(t);
    for (const ListEntry& e :
         testing::Entries(list, PartialLength(list.size(), fraction))) {
      if (e.phrase == phrase) {
        prob = e.prob;
        break;
      }
    }
    probs.push_back(prob);
  }
  return q.op == QueryOperator::kAnd
             ? AndScore(probs)
             : OrScore(probs, OrExpansionOrder::kFirstOrder);
}

// Asserts that two top-k results are score-equivalent: the multisets of
// their (recomputed) list-based scores agree. Massive ties are common --
// many phrases score exactly 1.0 per term -- so id-level equality is too
// strict, and bound-based early termination only fixes the top-k *set* up
// to ties, not the order within equal scores. The paper's own evaluation
// treats tied-at-max results as equally correct.
void ExpectScoreEquivalent(MiningEngine& engine, const Query& q,
                           const MineResult& a, const MineResult& b,
                           double fraction) {
  ASSERT_EQ(a.phrases.size(), b.phrases.size())
      << q.ToString(engine.corpus().vocab());
  std::vector<double> scores_a, scores_b;
  for (std::size_t i = 0; i < a.phrases.size(); ++i) {
    scores_a.push_back(FullListScore(engine, q, a.phrases[i].phrase, fraction));
    scores_b.push_back(FullListScore(engine, q, b.phrases[i].phrase, fraction));
    // Reported scores are upper bounds on the true list score.
    EXPECT_GE(a.phrases[i].score + 1e-9, scores_a.back());
    EXPECT_GE(b.phrases[i].score + 1e-9, scores_b.back());
  }
  std::sort(scores_a.begin(), scores_a.end(), std::greater<double>());
  std::sort(scores_b.begin(), scores_b.end(), std::greater<double>());
  for (std::size_t i = 0; i < scores_a.size(); ++i) {
    EXPECT_NEAR(scores_a[i], scores_b[i], 1e-9)
        << q.ToString(engine.corpus().vocab()) << " rank " << i;
  }
}

// --- Exactness of Exact vs GM ------------------------------------------------

TEST(MinersTest, GmMatchesExactOnTinyCorpus) {
  MiningEngine engine = MakeTinyEngine();
  for (const char* text : {"query optimization", "kernel systems", "db the"}) {
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      auto q = engine.ParseQuery(text, op);
      ASSERT_TRUE(q.ok());
      MineResult exact = engine.Mine(q.value(), Algorithm::kExact);
      MineResult gm = engine.Mine(q.value(), Algorithm::kGm);
      ASSERT_EQ(exact.phrases.size(), gm.phrases.size());
      for (std::size_t i = 0; i < exact.phrases.size(); ++i) {
        EXPECT_EQ(exact.phrases[i].phrase, gm.phrases[i].phrase) << text;
        EXPECT_DOUBLE_EQ(exact.phrases[i].score, gm.phrases[i].score);
      }
    }
  }
}

TEST(MinersTest, GmMatchesExactOnSynthetic) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 3, .num_queries = 12,
                                         .num_six_word = 1,
                                         .num_five_word = 1});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());
  for (const Query& base : queries) {
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query q = base;
      q.op = op;
      MineResult exact = engine.Mine(q, Algorithm::kExact);
      MineResult gm = engine.Mine(q, Algorithm::kGm);
      EXPECT_EQ(Ids(exact), Ids(gm));
    }
  }
}

TEST(MinersTest, ExactInterestingnessIsEq1) {
  MiningEngine engine = MakeTinyEngine();
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  MineResult result = engine.Mine(q.value(), Algorithm::kExact);
  ASSERT_FALSE(result.phrases.empty());
  // Verify each reported score against a direct Eq. 1 computation.
  const std::vector<DocId> subset =
      EvalSubCollection(q.value(), engine.inverted());
  for (const MinedPhrase& p : result.phrases) {
    const double truth = TrueInterestingness(engine, p.phrase, subset);
    EXPECT_DOUBLE_EQ(p.interestingness, truth);
  }
}

TEST(MinersTest, NormalizationDemotesStopwordPhrases) {
  // The motivating example of Section 1: raw frequency would rank the
  // ubiquitous stopword bigram first; Eq. 1's normalization must not.
  MiningEngine engine = MakeTinyEngine();
  auto q = engine.ParseQuery("query optimization", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  MineResult result =
      engine.Mine(q.value(), Algorithm::kExact, MineOptions{.k = 5});
  const TermId the = engine.corpus().vocab().Lookup("the");
  const TermId of = engine.corpus().vocab().Lookup("of");
  const PhraseId stop_bigram =
      engine.dict().Find(std::vector<TermId>{the, of});
  ASSERT_NE(stop_bigram, kInvalidPhraseId);
  for (const MinedPhrase& p : result.phrases) {
    EXPECT_NE(p.phrase, stop_bigram);
  }
}

// --- NRA / SMJ agreement -----------------------------------------------------

TEST(MinersTest, NraAndSmjAgreeOnFullLists) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 5, .num_queries = 15,
                                         .num_six_word = 1,
                                         .num_five_word = 2});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_GE(queries.size(), 10u);
  engine.SetSmjFraction(1.0);
  for (const Query& base : queries) {
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query q = base;
      q.op = op;
      MineResult nra = engine.Mine(q, Algorithm::kNra);
      MineResult smj = engine.Mine(q, Algorithm::kSmj);
      ExpectScoreEquivalent(engine, q, nra, smj, 1.0);
    }
  }
}

TEST(MinersTest, NraPartialListMatchesSmjConstructionFraction) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 9, .num_queries = 10});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_GE(queries.size(), 5u);
  for (double fraction : {0.2, 0.5}) {
    engine.SetSmjFraction(fraction);
    for (const Query& base : queries) {
      Query q = base;
      q.op = QueryOperator::kOr;
      MineResult nra =
          engine.Mine(q, Algorithm::kNra,
                      MineOptions{.k = 5, .list_fraction = fraction});
      MineResult smj = engine.Mine(q, Algorithm::kSmj, MineOptions{.k = 5});
      ExpectScoreEquivalent(engine, q, nra, smj, fraction);
    }
  }
}

TEST(MinersTest, NraEarlyTerminationDoesNotChangeResults) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 21, .num_queries = 10});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  for (const Query& base : queries) {
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      Query q = base;
      q.op = op;
      // Tiny batch size -> aggressive checking -> earliest stopping.
      MineResult eager = engine.Mine(
          q, Algorithm::kNra, MineOptions{.k = 5, .nra_batch_size = 8});
      // Huge batch size -> no early checks -> reads lists to the end.
      MineResult lazy = engine.Mine(
          q, Algorithm::kNra,
          MineOptions{.k = 5, .nra_batch_size = 100000000});
      ExpectScoreEquivalent(engine, q, eager, lazy, 1.0);
      EXPECT_LE(eager.entries_read, lazy.entries_read);
    }
  }
}

TEST(MinersTest, NraPruningStopsEarly) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 33, .num_queries = 8});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  double avg_fraction = 0.0;
  std::size_t n = 0;
  for (const Query& base : queries) {
    Query q = base;
    q.op = QueryOperator::kOr;
    MineResult r = engine.Mine(q, Algorithm::kNra,
                               MineOptions{.k = 5, .nra_batch_size = 16});
    avg_fraction += r.lists_traversed_fraction;
    ++n;
  }
  ASSERT_GT(n, 0u);
  avg_fraction /= static_cast<double>(n);
  // The Figure 11 claim: bounds allow stopping well before exhaustion.
  EXPECT_LT(avg_fraction, 0.95);
}

// --- Approximation quality (the independence assumption) ----------------------

TEST(MinersTest, SmjQualityHighVsExact) {
  MiningEngine engine = MakeSmallEngine(800);
  QuerySetGenerator qgen(QueryGenOptions{.seed = 13, .num_queries = 20});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_GE(queries.size(), 10u);
  engine.EnsureWordListsFor(queries);
  engine.SetSmjFraction(1.0);
  for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
    AggregateRun run =
        RunExperiment(engine, queries, op, Algorithm::kSmj,
                      MineOptions{.k = 5}, /*evaluate_quality=*/true);
    // The paper reports > 0.9 on all measures; leave slack for the small
    // synthetic corpus.
    EXPECT_GT(run.quality.ndcg, 0.75) << QueryOperatorName(op);
    EXPECT_GT(run.quality.mrr, 0.7) << QueryOperatorName(op);
  }
}

TEST(MinersTest, SingleTermQueriesAreExact) {
  // With r = 1 the independence assumption is vacuous: P(q|p) equals the
  // normalized interestingness of p in docs(q) under both operators, so SMJ
  // and NRA must reproduce the exact top-k exactly.
  MiningEngine engine = MakeSmallEngine();
  // Single-term queries from moderately frequent terms.
  std::vector<Query> queries;
  for (TermId t = 0; t < engine.corpus().vocab().size() && queries.size() < 8;
       ++t) {
    if (engine.inverted().df(t) >= 30 && engine.inverted().df(t) <= 200) {
      Query q;
      q.terms = {t};
      q.op = QueryOperator::kAnd;
      queries.push_back(q);
    }
  }
  ASSERT_GE(queries.size(), 3u);
  for (const Query& q : queries) {
    MineResult exact = engine.Mine(q, Algorithm::kExact);
    MineResult smj = engine.Mine(q, Algorithm::kSmj);
    ASSERT_EQ(exact.phrases.size(), smj.phrases.size());
    for (std::size_t i = 0; i < exact.phrases.size(); ++i) {
      EXPECT_NEAR(exact.phrases[i].interestingness,
                  smj.phrases[i].interestingness, 1e-9);
    }
  }
}

// --- Simitsis baseline --------------------------------------------------------

TEST(MinersTest, SimitsisReturnsResultsAndStopsEarly) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 17, .num_queries = 5});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());
  Query q = queries[0];
  q.op = QueryOperator::kAnd;
  MineResult r = engine.Mine(q, Algorithm::kSimitsis);
  EXPECT_FALSE(r.phrases.empty());
  // Phase-1 cardinality cutoff must avoid scanning the whole dictionary.
  EXPECT_LT(r.lists_traversed_fraction, 1.0);
}

TEST(MinersTest, SimitsisScoresAreTrueInterestingness) {
  MiningEngine engine = MakeTinyEngine();
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  MineResult r = engine.Mine(q.value(), Algorithm::kSimitsis);
  const std::vector<DocId> subset =
      EvalSubCollection(q.value(), engine.inverted());
  for (const MinedPhrase& p : r.phrases) {
    EXPECT_DOUBLE_EQ(p.interestingness,
                     TrueInterestingness(engine, p.phrase, subset));
  }
}

// --- Edge cases ----------------------------------------------------------------

TEST(MinersTest, EmptySubCollectionYieldsNoExactResults) {
  MiningEngine engine = MakeTinyEngine();
  // "histograms" (doc 3 only) AND "locks" (doc 5 only) -> empty D'.
  auto q = engine.ParseQuery("histograms locks", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(engine.Mine(q.value(), Algorithm::kExact).phrases.empty());
  EXPECT_TRUE(engine.Mine(q.value(), Algorithm::kGm).phrases.empty());
  // The list-based approximations may still return phrases here: a phrase
  // co-occurring with each term separately gets a non-zero independence
  // estimate even though D' is empty. That is precisely the kind of error
  // the independence assumption admits; verify any such result indeed has
  // true interestingness 0.
  const std::vector<DocId> subset =
      EvalSubCollection(q.value(), engine.inverted());
  ASSERT_TRUE(subset.empty());
  for (Algorithm a : {Algorithm::kSmj, Algorithm::kNra}) {
    for (const MinedPhrase& p : engine.Mine(q.value(), a).phrases) {
      EXPECT_DOUBLE_EQ(TrueInterestingness(engine, p.phrase, subset), 0.0);
    }
  }
}

TEST(MinersTest, KLargerThanCandidates) {
  MiningEngine engine = MakeTinyEngine();
  auto q = engine.ParseQuery("histograms", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  MineResult r =
      engine.Mine(q.value(), Algorithm::kExact, MineOptions{.k = 1000});
  EXPECT_FALSE(r.phrases.empty());
  EXPECT_LE(r.phrases.size(), 1000u);
  // Ranked non-increasing.
  for (std::size_t i = 1; i < r.phrases.size(); ++i) {
    EXPECT_GE(r.phrases[i - 1].score, r.phrases[i].score);
  }
}

TEST(MinersTest, KZeroYieldsEmpty) {
  MiningEngine engine = MakeTinyEngine();
  auto q = engine.ParseQuery("db", QueryOperator::kAnd);
  ASSERT_TRUE(q.ok());
  for (Algorithm a : {Algorithm::kExact, Algorithm::kGm, Algorithm::kSmj,
                      Algorithm::kNra}) {
    EXPECT_TRUE(engine.Mine(q.value(), a, MineOptions{.k = 0}).phrases.empty());
  }
}

TEST(MinersTest, ResultsAreRankedNonIncreasing) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 41, .num_queries = 6});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  for (const Query& base : queries) {
    for (Algorithm a : {Algorithm::kExact, Algorithm::kGm, Algorithm::kSmj,
                        Algorithm::kNra, Algorithm::kSimitsis}) {
      for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
        Query q = base;
        q.op = op;
        MineResult r = engine.Mine(q, a, MineOptions{.k = 10});
        for (std::size_t i = 1; i < r.phrases.size(); ++i) {
          EXPECT_GE(r.phrases[i - 1].score, r.phrases[i].score)
              << AlgorithmName(a);
        }
      }
    }
  }
}

TEST(MinersTest, AndResultsRequireCooccurrenceWithAllTerms) {
  MiningEngine engine = MakeSmallEngine();
  QuerySetGenerator qgen(QueryGenOptions{.seed = 55, .num_queries = 5});
  auto queries = qgen.Generate(engine.dict(), engine.inverted(), engine.corpus().size());
  ASSERT_FALSE(queries.empty());
  Query q = queries[0];
  q.op = QueryOperator::kAnd;
  MineResult r = engine.Mine(q, Algorithm::kSmj);
  const auto& lists = engine.word_lists();
  for (const MinedPhrase& p : r.phrases) {
    for (TermId t : q.terms) {
      bool found = false;
      for (const ListEntry& e : testing::Entries(lists.list(t))) {
        if (e.phrase == p.phrase) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "AND result must co-occur with every query term";
    }
  }
}

}  // namespace
}  // namespace phrasemine
