#include "core/delta_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "index/forward_index.h"

namespace phrasemine {

void DeltaIndex::AddDocument(std::span<const TermId> tokens,
                             std::span<const TermId> facets,
                             std::vector<PhraseId>* touched) {
  Apply(tokens, facets, +1, touched);
}

void DeltaIndex::RemoveDocument(std::span<const TermId> tokens,
                                std::span<const TermId> facets,
                                std::vector<PhraseId>* touched) {
  Apply(tokens, facets, -1, touched);
}

void DeltaIndex::Apply(std::span<const TermId> tokens,
                       std::span<const TermId> facets, int64_t sign,
                       std::vector<PhraseId>* touched) {
  const std::vector<PhraseId> phrases = CollectDocPhrases(tokens, *dict_);
  if (touched != nullptr) {
    touched->insert(touched->end(), phrases.begin(), phrases.end());
  }
  std::unordered_set<TermId> terms(tokens.begin(), tokens.end());
  terms.insert(facets.begin(), facets.end());

  for (PhraseId p : phrases) {
    base_df_.try_emplace(p, dict_->df(p));
    df_delta_[p] += sign;
    for (TermId w : terms) {
      co_delta_[w][p] += sign;
    }
  }
  for (TermId w : terms) {
    term_df_delta_[w] += sign;
  }
  docs_delta_ += sign;
  ++pending_updates_;
}

int64_t DeltaIndex::DfDelta(PhraseId p) const {
  auto it = df_delta_.find(p);
  return it == df_delta_.end() ? 0 : it->second;
}

int64_t DeltaIndex::CoDelta(TermId w, PhraseId p) const {
  auto term_it = co_delta_.find(w);
  if (term_it == co_delta_.end()) return 0;
  auto it = term_it->second.find(p);
  return it == term_it->second.end() ? 0 : it->second;
}

int64_t DeltaIndex::TermDfDelta(TermId w) const {
  auto it = term_df_delta_.find(w);
  return it == term_df_delta_.end() ? 0 : it->second;
}

double DeltaIndex::AdjustedProb(TermId w, PhraseId p,
                                double base_prob) const {
  auto df_it = base_df_.find(p);
  // Untouched phrases carry no deltas; the stored value stands.
  if (df_it == base_df_.end()) return std::clamp(base_prob, 0.0, 1.0);
  const int64_t base_df = df_it->second;
  const int64_t base_count =
      std::llround(base_prob * static_cast<double>(base_df));
  const int64_t df = base_df + DfDelta(p);
  if (df <= 0) return 0.0;
  const int64_t count = base_count + CoDelta(w, p);
  const double prob =
      static_cast<double>(std::max<int64_t>(count, 0)) /
      static_cast<double>(df);
  return std::clamp(prob, 0.0, 1.0);
}

std::vector<ListEntry> DeltaIndex::ExtraIdOrderedEntries(
    TermId w, std::span<const PhraseId> base_ids) const {
  std::vector<ListEntry> extras;
  auto term_it = co_delta_.find(w);
  if (term_it == co_delta_.end()) return extras;
  for (const auto& [p, co] : term_it->second) {
    if (co <= 0) continue;  // Base-positive or net-removed: nothing new.
    if (std::binary_search(base_ids.begin(), base_ids.end(), p)) continue;
    if (AdjustedProb(w, p, 0.0) <= 0.0) continue;
    extras.push_back(ListEntry{p, 0.0});
  }
  std::sort(extras.begin(), extras.end(),
            [](const ListEntry& a, const ListEntry& b) {
              return a.phrase < b.phrase;
            });
  return extras;
}

SharedSoAList DeltaIndex::OverlayIdOrdered(TermId term,
                                           SharedSoAList base) const {
  if (base == nullptr) base = std::make_shared<const SoABlockList>();
  const std::vector<ListEntry> extras = ExtraIdOrderedEntries(
      term, std::span<const PhraseId>(base->ids(), base->size()));
  if (extras.empty()) return base;
  return std::make_shared<const SoABlockList>(
      SoABlockList::Merged(*base, extras));
}

}  // namespace phrasemine
