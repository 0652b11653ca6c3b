// Incremental-update scenario (Section 4.5.1): the corpus keeps receiving
// new documents after the word lists were built. Instead of rebuilding, a
// DeltaIndex accumulates insertions/deletions and SMJ/NRA consult it to
// correct each pre-computed conditional probability at query time.

#include <cstdio>

#include "core/delta_index.h"
#include "core/engine.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

using namespace phrasemine;

namespace {

void Show(MiningEngine& engine, const Query& q, const MineOptions& options,
          const char* label) {
  MineResult r = engine.Mine(q, Algorithm::kSmj, options);
  std::printf("%s\n", label);
  for (const auto& p : r.phrases) {
    std::printf("    %-30s %.3f\n", engine.PhraseText(p.phrase).c_str(),
                p.interestingness);
  }
}

}  // namespace

int main() {
  Corpus corpus;
  // Base collection: "merger talks" is moderately tied to "bank".
  for (int i = 0; i < 6; ++i) {
    corpus.AddText("bank merger talks continue amid market rally today");
  }
  for (int i = 0; i < 6; ++i) {
    corpus.AddText("merger talks between airlines stall on price terms");
  }
  for (int i = 0; i < 6; ++i) {
    corpus.AddText("bank lending rates rise as market cools further");
  }

  MiningEngine::Options options;
  options.extractor.min_df = 3;
  MiningEngine engine = MiningEngine::Build(std::move(corpus), options);

  Query query = engine.ParseQuery("bank", QueryOperator::kAnd).value();
  MineOptions mine_options;
  mine_options.k = 3;
  Show(engine, query, mine_options, "before updates:");

  // Track one specific phrase through the update: "merger talks" starts
  // with P(bank | "merger talks") = 6/12 = 0.5.
  const TermId bank = engine.corpus().vocab().Lookup("bank");
  const PhraseId merger_talks = engine.dict().Find(std::vector<TermId>{
      engine.corpus().vocab().Lookup("merger"),
      engine.corpus().vocab().Lookup("talks")});
  double base_prob = 0.0;
  engine.EnsureWordLists(std::vector<TermId>{bank});
  const SoABlockList& bank_list = engine.word_lists().list(bank);
  for (std::size_t i = 0; i < bank_list.size(); ++i) {
    if (bank_list.ids()[i] == merger_talks) base_prob = bank_list.probs()[i];
  }
  std::printf("\nP(bank | \"merger talks\") in the stored list: %.3f\n",
              base_prob);

  // A burst of new documents arrives: suddenly every "merger talks" story
  // is a bank story. A full index rebuild would be needed to reflect this;
  // the delta index absorbs it instead.
  DeltaIndex delta(engine.dict());
  Tokenizer tokenizer;
  for (int i = 0; i < 8; ++i) {
    std::vector<TermId> tokens;
    for (const std::string& w :
         tokenizer.Tokenize("bank merger talks accelerate after market close")) {
      // Words unseen at build time cannot affect the frozen dictionary;
      // they are picked up at the next offline rebuild.
      const TermId t = engine.corpus().vocab().Lookup(w);
      if (t != kInvalidTermId) tokens.push_back(t);
    }
    delta.AddDocument(tokens);
  }
  std::printf("\nabsorbed %zu updates into the delta index\n\n",
              delta.pending_updates());

  mine_options.delta = &delta;
  Show(engine, query, mine_options, "after updates (delta-adjusted):");
  std::printf(
      "\nP(bank | \"merger talks\") corrected by the delta at query time: "
      "%.3f\n",
      delta.AdjustedProb(bank, merger_talks, base_prob));

  std::printf(
      "\nNote: phrases that only became frequent through the new documents\n"
      "enter the dictionary at the next offline rebuild, per the paper.\n");

  // --- The managed path: ApplyUpdate + epochs + Rebuild ---------------------
  // Instead of wiring a DeltaIndex by hand, hand the batch to the engine:
  // it maintains the overlay per epoch, applies it to every mine, and
  // stamps each result with the guarantee that held.
  std::printf("\n=== engine-managed live updates ===\n\n");
  UpdateBatch batch;
  for (int i = 0; i < 8; ++i) {
    batch.inserts.push_back(UpdateDoc{
        {"bank", "merger", "talks", "accelerate", "after", "market", "close"},
        {}});
  }
  const UpdateStats stats = engine.ApplyUpdate(batch);
  std::printf("epoch %llu: +%zu docs, overlay at %.0f%% of the corpus%s\n",
              static_cast<unsigned long long>(stats.epoch),
              stats.batch_inserts, 100.0 * stats.delta_fraction,
              stats.rebuild_recommended ? " -> rebuild recommended" : "");

  mine_options.delta = nullptr;  // the engine applies its own overlay now
  MineResult live = engine.Mine(query, Algorithm::kSmj, mine_options);
  std::printf("mined at epoch %llu under guarantee \"%s\"\n",
              static_cast<unsigned long long>(live.epoch),
              UpdateGuaranteeName(live.guarantee));

  // The overlay crossed the default 25%% threshold above; a production
  // deployment lets PhraseService run this on its thread pool.
  engine.Rebuild();
  MineResult rebuilt = engine.Mine(query, Algorithm::kSmj, mine_options);
  std::printf("after Rebuild(): epoch %llu, guarantee \"%s\", %zu live docs\n",
              static_cast<unsigned long long>(rebuilt.epoch),
              UpdateGuaranteeName(rebuilt.guarantee), engine.corpus().size());
  return 0;
}
