#include "test_util.h"

#include <algorithm>

#include "text/synthetic.h"

namespace phrasemine::testing {

Corpus MakeTinyCorpus() {
  Corpus corpus;
  // "the of" appears in every document; "query optimization" only in the
  // database documents; "join order" in two of them.
  corpus.AddText("the of query optimization improves join order in the of db");
  corpus.AddText("query optimization the of relies on cost models db");
  corpus.AddText("the of join order search is query optimization core db");
  corpus.AddText("db the of query optimization with histograms");
  corpus.AddText("the of operating systems schedule threads kernel");
  corpus.AddText("kernel the of systems code uses locks");
  corpus.AddText("the of scheduling in kernel systems");
  corpus.AddText("systems kernel the of page tables");
  return corpus;
}

Corpus MakeSmallSyntheticCorpus(std::size_t num_docs) {
  SyntheticCorpusOptions options;
  options.seed = 1234;
  options.num_docs = num_docs;
  options.num_topics = 6;
  options.topic_vocab = 120;
  options.shared_vocab = 400;
  options.num_stopwords = 30;
  options.phrases_per_topic = 20;
  options.min_doc_tokens = 40;
  options.max_doc_tokens = 120;
  SyntheticCorpusGenerator generator(options);
  return generator.Generate();
}

MiningEngine MakeTinyEngine() {
  MiningEngine::Options options;
  options.extractor.min_df = 2;
  options.extractor.max_phrase_len = 4;
  return MiningEngine::Build(MakeTinyCorpus(), options);
}

MiningEngine MakeSmallEngine(std::size_t num_docs) {
  MiningEngine::Options options;
  options.extractor.min_df = 5;
  return MiningEngine::Build(MakeSmallSyntheticCorpus(num_docs), options);
}

std::vector<ListEntry> Entries(const SoABlockList& list, std::size_t n) {
  std::vector<ListEntry> entries(std::min(n, list.size()));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i] = ListEntry{list.ids()[i], list.probs()[i]};
  }
  return entries;
}

std::vector<PhraseId> Ids(const MineResult& result) {
  std::vector<PhraseId> ids;
  ids.reserve(result.phrases.size());
  for (const MinedPhrase& p : result.phrases) ids.push_back(p.phrase);
  return ids;
}

std::vector<std::pair<PhraseId, double>> RankedSignature(
    const MineResult& result) {
  std::vector<std::pair<PhraseId, double>> sig;
  sig.reserve(result.phrases.size());
  for (const MinedPhrase& p : result.phrases) {
    sig.emplace_back(p.phrase, p.score);
  }
  return sig;
}

std::vector<std::string> Rendered(const MiningEngine& engine,
                                  const MineResult& result) {
  std::vector<std::string> out;
  for (const MinedPhrase& p : result.phrases) {
    out.push_back(engine.PhraseText(p.phrase) + ":" +
                  std::to_string(p.score));
  }
  return out;
}

}  // namespace phrasemine::testing
