// Section 4.5.1: the delta overlay must make SMJ produce the same scores it
// would produce over a rebuilt index on corpus + updates, for phrases that
// existed in the base dictionary.

#include <algorithm>
#include <vector>

#include "core/delta_index.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace phrasemine {
namespace {

std::vector<TermId> ToIds(const Corpus& corpus, const char* text) {
  Tokenizer tokenizer;
  std::vector<TermId> ids;
  for (const std::string& w : tokenizer.Tokenize(text)) {
    const TermId t = corpus.vocab().Lookup(w);
    if (t != kInvalidTermId) ids.push_back(t);
  }
  return ids;
}

TEST(DeltaIndexTest, DfDeltaTracksInsertions) {
  MiningEngine engine = testing::MakeTinyEngine();
  DeltaIndex delta(engine.dict());
  const PhraseId qo = engine.dict().Find(std::vector<TermId>{
      engine.corpus().vocab().Lookup("query"),
      engine.corpus().vocab().Lookup("optimization")});
  ASSERT_NE(qo, kInvalidPhraseId);

  EXPECT_EQ(delta.DfDelta(qo), 0);
  auto doc = ToIds(engine.corpus(), "new query optimization article db");
  delta.AddDocument(doc);
  EXPECT_EQ(delta.DfDelta(qo), 1);
  delta.AddDocument(doc);
  EXPECT_EQ(delta.DfDelta(qo), 2);
  delta.RemoveDocument(doc);
  EXPECT_EQ(delta.DfDelta(qo), 1);
  EXPECT_EQ(delta.pending_updates(), 3u);
}

TEST(DeltaIndexTest, CoDeltaTracksWordPhrasePairs) {
  MiningEngine engine = testing::MakeTinyEngine();
  DeltaIndex delta(engine.dict());
  const Corpus& corpus = engine.corpus();
  const TermId db = corpus.vocab().Lookup("db");
  const TermId kernel = corpus.vocab().Lookup("kernel");
  const PhraseId qo = engine.dict().Find(std::vector<TermId>{
      corpus.vocab().Lookup("query"), corpus.vocab().Lookup("optimization")});

  auto doc = ToIds(corpus, "db query optimization again");
  delta.AddDocument(doc);
  EXPECT_EQ(delta.CoDelta(db, qo), 1);
  EXPECT_EQ(delta.CoDelta(kernel, qo), 0);
}

TEST(DeltaIndexTest, RepeatedPhraseInDocCountsOnce) {
  MiningEngine engine = testing::MakeTinyEngine();
  DeltaIndex delta(engine.dict());
  const Corpus& corpus = engine.corpus();
  const PhraseId qo = engine.dict().Find(std::vector<TermId>{
      corpus.vocab().Lookup("query"), corpus.vocab().Lookup("optimization")});
  auto doc =
      ToIds(corpus, "query optimization and query optimization twice db");
  delta.AddDocument(doc);
  EXPECT_EQ(delta.DfDelta(qo), 1);  // Document frequency, not occurrences.
}

TEST(DeltaIndexTest, AdjustedProbMatchesRebuiltIndex) {
  // Build base engine over the first 2/3 of a synthetic corpus; apply the
  // last third through the delta; compare SMJ scores against an engine
  // rebuilt over the whole corpus, restricted to base-dictionary phrases.
  Corpus base;
  Corpus complete;
  // Share one vocabulary by re-adding token text through the same intern
  // order: easiest is to copy documents by id into both corpora.
  // (Corpus is move-only, so build two fresh ones with identical content.)
  Corpus source = testing::MakeSmallSyntheticCorpus(300);
  const std::size_t cut = 200;
  for (DocId d = 0; d < source.size(); ++d) {
    std::vector<std::string> tokens;
    for (TermId t : source.doc(d).tokens) {
      tokens.push_back(source.vocab().TermText(t));
    }
    if (d < cut) base.AddTokenized(tokens);
    complete.AddTokenized(tokens);
  }

  MiningEngine::Options options;
  options.extractor.min_df = 4;
  MiningEngine base_engine = MiningEngine::Build(std::move(base), options);
  MiningEngine full_engine = MiningEngine::Build(std::move(complete), options);

  // Feed the tail documents into the delta (vocab ids from base corpus).
  DeltaIndex delta(base_engine.dict());
  for (DocId d = cut; d < source.size(); ++d) {
    std::vector<TermId> ids;
    for (TermId t : source.doc(d).tokens) {
      const TermId bt =
          base_engine.corpus().vocab().Lookup(source.vocab().TermText(t));
      if (bt != kInvalidTermId) ids.push_back(bt);
    }
    delta.AddDocument(ids);
  }

  // Pick a query from a moderately frequent term present in both engines.
  TermId query_term = kInvalidTermId;
  for (TermId t = 0; t < base_engine.corpus().vocab().size(); ++t) {
    if (base_engine.inverted().df(t) >= 20 &&
        base_engine.inverted().df(t) <= 120) {
      query_term = t;
      break;
    }
  }
  ASSERT_NE(query_term, kInvalidTermId);
  const std::string term_text =
      base_engine.corpus().vocab().TermText(query_term);

  Query base_query;
  base_query.terms = {query_term};
  base_query.op = QueryOperator::kAnd;

  MineOptions with_delta;
  with_delta.k = 10;
  with_delta.delta = &delta;
  MineResult adjusted = base_engine.Mine(base_query, Algorithm::kSmj,
                                         with_delta);

  // Reference: same probabilities from the rebuilt full engine.
  const TermId full_term = full_engine.corpus().vocab().Lookup(term_text);
  ASSERT_NE(full_term, kInvalidTermId);
  full_engine.EnsureWordLists(std::vector<TermId>{full_term});

  for (const MinedPhrase& p : adjusted.phrases) {
    // Map the phrase into the full engine's dictionary via its text tokens.
    std::vector<TermId> full_tokens;
    for (TermId t : base_engine.dict().info(p.phrase).tokens) {
      full_tokens.push_back(full_engine.corpus().vocab().Lookup(
          base_engine.corpus().vocab().TermText(t)));
    }
    const PhraseId full_phrase = full_engine.dict().Find(full_tokens);
    if (full_phrase == kInvalidPhraseId) continue;  // df drifted below floor
    double reference = 0.0;
    for (const ListEntry& e :
         testing::Entries(full_engine.word_lists().list(full_term))) {
      if (e.phrase == full_phrase) {
        reference = e.prob;
        break;
      }
    }
    EXPECT_NEAR(p.interestingness, reference, 1e-9)
        << base_engine.PhraseText(p.phrase);
  }
}

TEST(DeltaIndexTest, RemovalCanZeroOutPhrase) {
  MiningEngine engine = testing::MakeTinyEngine();
  DeltaIndex delta(engine.dict());
  const Corpus& corpus = engine.corpus();
  const PhraseId hist =
      engine.dict().Unigram(corpus.vocab().Lookup("histograms"));
  ASSERT_EQ(hist, kInvalidPhraseId);  // df 1 < min_df 2: not a phrase.

  const PhraseId join = engine.dict().Unigram(corpus.vocab().Lookup("join"));
  ASSERT_NE(join, kInvalidPhraseId);
  // Remove both docs containing "join": df 2 -> 0.
  delta.RemoveDocument(
      std::vector<TermId>(corpus.doc(0).tokens.begin(),
                          corpus.doc(0).tokens.end()));
  delta.RemoveDocument(
      std::vector<TermId>(corpus.doc(2).tokens.begin(),
                          corpus.doc(2).tokens.end()));
  EXPECT_EQ(delta.DfDelta(join), -2);
  const TermId db = corpus.vocab().Lookup("db");
  EXPECT_DOUBLE_EQ(delta.AdjustedProb(db, join, 1.0), 0.0);
}

TEST(DeltaIndexTest, AdjustedProbClampedToUnitInterval) {
  MiningEngine engine = testing::MakeTinyEngine();
  DeltaIndex delta(engine.dict());
  const Corpus& corpus = engine.corpus();
  const PhraseId join = engine.dict().Unigram(corpus.vocab().Lookup("join"));
  const TermId db = corpus.vocab().Lookup("db");
  ASSERT_NE(join, kInvalidPhraseId);
  // Many co-occurring inserts cannot push the probability above 1.
  auto doc = ToIds(corpus, "db join stuff");
  for (int i = 0; i < 10; ++i) delta.AddDocument(doc);
  const double p = delta.AdjustedProb(db, join, 1.0);
  EXPECT_LE(p, 1.0);
  EXPECT_GT(p, 0.0);
}

}  // namespace
}  // namespace phrasemine
