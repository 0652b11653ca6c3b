#include "index/word_lists.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace phrasemine {

namespace {

/// Builds the score-ordered list for one term: count phrase co-occurrences
/// over docs(term), normalize by df(p), sort by (prob desc, id asc).
std::vector<ListEntry> BuildOneList(const InvertedIndex& inverted,
                                    const ForwardIndex& forward,
                                    const PhraseDictionary& dict,
                                    TermId term,
                                    std::unordered_map<PhraseId, uint32_t>*
                                        scratch_counts) {
  scratch_counts->clear();
  for (DocId d : inverted.docs(term)) {
    for (PhraseId p : forward.Phrases(d, dict)) {
      ++(*scratch_counts)[p];
    }
  }
  std::vector<ListEntry> list;
  list.reserve(scratch_counts->size());
  for (const auto& [phrase, count] : *scratch_counts) {
    const uint32_t df = dict.df(phrase);
    PM_CHECK_MSG(count <= df, "co-occurrence count exceeds phrase df");
    if (count == 0) continue;  // Zero scores are omitted (Section 4.2.2).
    list.push_back(ListEntry{phrase, static_cast<double>(count) / df});
  }
  std::sort(list.begin(), list.end(), [](const ListEntry& a, const ListEntry& b) {
    if (a.prob != b.prob) return a.prob > b.prob;
    return a.phrase < b.phrase;
  });
  return list;
}

/// Packs a sorted score-ordered run into its resident SoA form.
SharedSoAList PackScoreOrdered(const std::vector<ListEntry>& run) {
  std::vector<PhraseId> ids;
  std::vector<double> probs;
  ids.reserve(run.size());
  probs.reserve(run.size());
  for (const ListEntry& e : run) {
    ids.push_back(e.phrase);
    probs.push_back(e.prob);
  }
  return std::make_shared<const SoABlockList>(
      SoABlockList::FromScoreOrdered(std::move(ids), std::move(probs)));
}

}  // namespace

std::size_t PartialLength(std::size_t n, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  return static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(n)));
}

WordScoreLists WordScoreLists::Build(const InvertedIndex& inverted,
                                     const ForwardIndex& forward,
                                     const PhraseDictionary& dict,
                                     std::span<const TermId> terms) {
  WordScoreLists result;
  std::unordered_map<PhraseId, uint32_t> scratch;
  for (TermId t : terms) {
    if (result.lists_.contains(t)) continue;
    result.lists_.emplace(t, PackScoreOrdered(BuildOneList(
                                 inverted, forward, dict, t, &scratch)));
  }
  return result;
}

WordScoreLists WordScoreLists::BuildAll(const InvertedIndex& inverted,
                                        const ForwardIndex& forward,
                                        const PhraseDictionary& dict,
                                        uint32_t min_term_df) {
  WordScoreLists result;
  std::unordered_map<PhraseId, uint32_t> scratch;
  for (TermId t = 0; t < inverted.num_terms(); ++t) {
    if (inverted.df(t) < min_term_df) continue;
    result.lists_.emplace(t, PackScoreOrdered(BuildOneList(
                                 inverted, forward, dict, t, &scratch)));
  }
  return result;
}

SharedWordList WordScoreLists::BuildOne(const InvertedIndex& inverted,
                                        const ForwardIndex& forward,
                                        const PhraseDictionary& dict,
                                        TermId term) {
  std::unordered_map<PhraseId, uint32_t> scratch;
  return std::make_shared<const std::vector<ListEntry>>(
      BuildOneList(inverted, forward, dict, term, &scratch));
}

const SoABlockList& WordScoreLists::list(TermId term) const {
  static const SoABlockList kEmpty;
  auto it = lists_.find(term);
  return it == lists_.end() ? kEmpty : *it->second;
}

std::size_t WordScoreLists::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& [term, list] : lists_) total += list->size();
  return total;
}

std::size_t WordScoreLists::ListBytes(TermId term) const {
  return list(term).size() * kListEntryBytes;
}

std::size_t WordScoreLists::InMemoryBytes(double fraction) const {
  std::size_t entries = 0;
  for (const auto& [term, list] : lists_) {
    entries += PartialLength(list->size(), fraction);
  }
  return entries * kListEntryBytes;
}

void WordScoreLists::Merge(WordScoreLists&& other) {
  for (auto& [term, list] : other.lists_) {
    lists_.try_emplace(term, std::move(list));
  }
  other.lists_.clear();
}

std::vector<TermId> WordScoreLists::Terms() const {
  std::vector<TermId> terms;
  terms.reserve(lists_.size());
  for (const auto& [term, list] : lists_) terms.push_back(term);
  return terms;
}

void WordScoreLists::Serialize(BinaryWriter* writer) const {
  // Terms in ascending id order: iteration over the unordered_map is not
  // deterministic, and the serialized bytes feed checksummed index file
  // sections where the same lists must always hash the same.
  std::vector<TermId> terms = Terms();
  std::sort(terms.begin(), terms.end());
  writer->PutU32(static_cast<uint32_t>(terms.size()));
  for (TermId term : terms) {
    const SoABlockList& list = *lists_.at(term);
    writer->PutU32(term);
    writer->PutU64(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      writer->PutU32(list.ids()[i]);
      writer->PutDouble(list.probs()[i]);
    }
  }
}

Result<WordScoreLists> WordScoreLists::Deserialize(BinaryReader* reader,
                                                   SerializedLayout* layout) {
  const std::size_t origin = reader->position();
  uint32_t num_terms = 0;
  Status s = reader->GetU32(&num_terms);
  if (!s.ok()) return s;
  WordScoreLists result;
  for (uint32_t i = 0; i < num_terms; ++i) {
    uint32_t term = 0;
    uint64_t len = 0;
    s = reader->GetU32(&term);
    if (!s.ok()) return s;
    s = reader->GetU64(&len);
    if (!s.ok()) return s;
    // Oversize guard before allocating: each entry consumes kListEntryBytes
    // of payload, so a length prefix beyond the remaining bytes is corrupt.
    if (len > reader->Remaining() / kListEntryBytes) {
      return Status::Corruption("word list length exceeds remaining bytes");
    }
    if (layout != nullptr) {
      layout->entry_runs[term] = {reader->position() - origin, len};
    }
    std::vector<PhraseId> ids(static_cast<std::size_t>(len));
    std::vector<double> probs(static_cast<std::size_t>(len));
    for (std::size_t e = 0; e < ids.size(); ++e) {
      s = reader->GetU32(&ids[e]);
      if (!s.ok()) return s;
      s = reader->GetDouble(&probs[e]);
      if (!s.ok()) return s;
    }
    result.lists_.emplace(term, std::make_shared<const SoABlockList>(
                                    SoABlockList::FromScoreOrdered(
                                        std::move(ids), std::move(probs))));
  }
  return result;
}

WordIdOrderedLists::WordIdOrderedLists(double fraction)
    : fraction_(std::clamp(fraction, 0.0, 1.0)) {}

WordIdOrderedLists WordIdOrderedLists::Build(const WordScoreLists& score_lists,
                                             double fraction) {
  WordIdOrderedLists result(fraction);
  for (TermId t : score_lists.Terms()) {
    result.Insert(t, PackPrefix(score_lists.list(t), result.fraction_));
  }
  return result;
}

SharedWordList WordIdOrderedLists::IdOrderPrefix(
    std::span<const ListEntry> prefix) {
  std::vector<ListEntry> list(prefix.begin(), prefix.end());
  std::sort(list.begin(), list.end(),
            [](const ListEntry& a, const ListEntry& b) {
              return a.phrase < b.phrase;
            });
  return std::make_shared<const std::vector<ListEntry>>(std::move(list));
}

SharedSoAList WordIdOrderedLists::PackPrefix(const SoABlockList& score_list,
                                             double fraction) {
  std::vector<ListEntry> prefix(PartialLength(score_list.size(), fraction));
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = ListEntry{score_list.ids()[i], score_list.probs()[i]};
  }
  return std::make_shared<const SoABlockList>(
      SoABlockList::FromIdOrdered(*IdOrderPrefix(prefix)));
}

const SoABlockList* WordIdOrderedLists::soa(TermId term) const {
  auto it = lists_.find(term);
  return it == lists_.end() ? nullptr : it->second.get();
}

SharedSoAList WordIdOrderedLists::shared_soa(TermId term) const {
  auto it = lists_.find(term);
  return it == lists_.end() ? nullptr : it->second;
}

void WordIdOrderedLists::Insert(TermId term, SharedSoAList list) {
  PM_CHECK_MSG(list != nullptr, "Insert requires a non-null list");
  lists_.try_emplace(term, std::move(list));
}

std::size_t WordIdOrderedLists::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& [term, list] : lists_) total += list->size();
  return total;
}

std::size_t WordIdOrderedLists::MemoryBytes() const {
  std::size_t total = 0;
  for (const auto& [term, list] : lists_) total += list->MemoryBytes();
  return total;
}

}  // namespace phrasemine
