#include "core/disk_lists.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "index/list_entry.h"
#include "testing/failpoint.h"

namespace phrasemine {

namespace {

/// Shared preamble of every charge point: free once the query is cancelled
/// (flag-only check) or a device error already latched, and evaluate the
/// "disk.read" failpoint (chaos tests inject device failures and latency
/// here). Returns false when the charge should be skipped.
bool ChargeAdmitted(const CancelToken* cancel, Status* error) {
  if (!error->ok()) return false;
  if (CancelRequested(cancel)) return false;
  if (failpoint::Enabled()) {
    if (Status s = PM_FAILPOINT("disk.read"); !s.ok()) {
      *error = std::move(s);
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<TermId> DiskResidentLists::HotnessOrder(
    const WordScoreLists& lists, const InvertedIndex& inverted,
    const TermPopularity* observed) {
  std::vector<TermId> terms = lists.Terms();
  // Static hotness order: term df descending (a list is touched once per
  // query naming its term, and high-df terms dominate harvested
  // workloads), ties to the smaller TermId so placement is a pure
  // function of the corpus and budget. With observed counts installed
  // the count leads and df only breaks ties: terms the workload never
  // named all carry count 0 and keep their static relative order.
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    if (observed != nullptr) {
      auto ita = observed->find(a);
      auto itb = observed->find(b);
      const uint64_t ca = ita != observed->end() ? ita->second : 0;
      const uint64_t cb = itb != observed->end() ? itb->second : 0;
      if (ca != cb) return ca > cb;
    }
    const uint32_t da = inverted.df(a);
    const uint32_t db = inverted.df(b);
    if (da != db) return da > db;
    return a < b;
  });
  return terms;
}

std::unordered_set<TermId> DiskResidentLists::ResidentSet(
    const WordScoreLists& lists, const InvertedIndex& inverted,
    uint64_t budget_bytes, const TermPopularity* observed) {
  std::unordered_set<TermId> resident;
  if (budget_bytes == 0) return resident;
  const std::vector<TermId> terms = HotnessOrder(lists, inverted, observed);
  uint64_t remaining = budget_bytes;
  for (TermId t : terms) {
    const uint64_t bytes = lists.ListBytes(t);
    // Strict prefix: the first list that does not fit ends the pinning,
    // so the spilled set is exactly the cold tail of the hotness order
    // (no best-fit backfilling -- predictability over packing).
    if (bytes > remaining) break;
    remaining -= bytes;
    resident.insert(t);
  }
  return resident;
}

DiskResidentLists::DiskResidentLists(const WordScoreLists& lists,
                                     const PhraseListFile& phrase_file,
                                     const InvertedIndex& inverted,
                                     DiskTierOptions options,
                                     std::unique_ptr<DiskBackend> device,
                                     MappedListLayout layout)
    : lists_(lists),
      phrase_file_(phrase_file),
      options_(options),
      device_(device != nullptr
                  ? std::move(device)
                  : std::make_unique<SimulatedDisk>(options.disk)),
      layout_(std::move(layout)),
      resident_(ResidentSet(lists, inverted, options.resident_budget_bytes,
                            options_.observed_popularity.get())) {
  PlaceAndRegister();
}

void DiskResidentLists::PlaceAndRegister() {
  for (TermId t : lists_.Terms()) {
    // One byte unit: a pinned list costs in RAM what a spilled one
    // occupies on the device.
    const uint64_t bytes = lists_.ListBytes(t);
    if (resident_.contains(t)) {
      resident_bytes_ += bytes;
      continue;
    }
    if (bytes == 0) continue;  // empty lists occupy no device range
    spilled_bytes_ += bytes;
    // A persisted list is backed by its entry run in the mapped file
    // (when the run length matches what is in memory); lists built after
    // load have no bytes in the file and register unbacked.
    uint64_t offset = DiskBackend::kNoOffset;
    auto run = layout_.entry_runs.find(t);
    if (run != layout_.entry_runs.end() &&
        run->second.second == lists_.list(t).size()) {
      offset = run->second.first;
    }
    list_files_.emplace(t, device_->RegisterRange(offset, bytes));
  }
  phrase_file_id_ = device_->RegisterRange(
      layout_.phrase_slots_offset,
      std::max<uint64_t>(phrase_file_.SizeBytes(), 1));
}

DiskResidentLists::ListHandle DiskResidentLists::ListHandleOf(
    TermId term) const {
  if (resident_.contains(term)) return kPinnedList;  // pinned: no charge
  auto it = list_files_.find(term);
  PM_CHECK_MSG(it != list_files_.end(), "no disk range for term list");
  return it->second;
}

void DiskResidentLists::ChargeRange(uint32_t range, uint64_t offset,
                                    uint64_t n) {
  if (!ChargeAdmitted(cancel_, &error_)) return;
  device_->Read(range, offset, n);
}

void DiskResidentLists::ChargePhraseLookup(PhraseId id) {
  ChargeRange(phrase_file_id_, phrase_file_.SlotOffset(id),
              phrase_file_.slot_size());
}

}  // namespace phrasemine
