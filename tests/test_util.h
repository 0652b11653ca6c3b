#ifndef PHRASEMINE_TESTS_TEST_UTIL_H_
#define PHRASEMINE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "text/corpus.h"

namespace phrasemine::testing {

/// Builds a tiny hand-written corpus with known phrase statistics, used by
/// most unit tests. Eight documents over a small vocabulary:
///   docs 0-3 are "database" themed and all contain the bigram
///   "query optimization"; docs 4-7 are "systems" themed; every document
///   contains the stopword pair "the of" so that an un-normalized scorer
///   would rank it first.
Corpus MakeTinyCorpus();

/// Builds a mid-size deterministic synthetic corpus (fast enough for unit
/// tests, large enough for the miners to disagree in interesting ways).
Corpus MakeSmallSyntheticCorpus(std::size_t num_docs = 600);

/// Engine over MakeTinyCorpus with min_df = 2 (so tiny-corpus phrases
/// qualify).
MiningEngine MakeTinyEngine();

/// Engine over MakeSmallSyntheticCorpus with default extraction options.
MiningEngine MakeSmallEngine(std::size_t num_docs = 600);

/// The first `n` entries of a packed list (all of them by default) zipped
/// back into an AoS run, for tests that compare or iterate entries.
std::vector<ListEntry> Entries(const SoABlockList& list,
                               std::size_t n = SIZE_MAX);

/// Result phrase ids in rank order.
std::vector<PhraseId> Ids(const MineResult& result);

/// (phrase, score) sequence of a ranked result: the signature the
/// differential tests compare bitwise (disk placement, kernel paths,
/// sharded merges). Two results with equal signatures rank the same
/// phrases with the same scores in the same order.
std::vector<std::pair<PhraseId, double>> RankedSignature(
    const MineResult& result);

/// Renders ranked results as "text:score" strings (debugging aid).
std::vector<std::string> Rendered(const MiningEngine& engine,
                                  const MineResult& result);

}  // namespace phrasemine::testing

#endif  // PHRASEMINE_TESTS_TEST_UTIL_H_
