#ifndef PHRASEMINE_CORE_DISK_LISTS_H_
#define PHRASEMINE_CORE_DISK_LISTS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "index/inverted_index.h"
#include "index/phrase_list_file.h"
#include "index/word_lists.h"
#include "storage/disk_backend.h"
#include "storage/simulated_disk.h"
#include "text/types.h"

namespace phrasemine {

/// Observed per-term query counts (term -> queries naming it), the
/// feedback signal of workload-aware placement. PhraseService accumulates
/// these in its metrics registry and installs a snapshot through
/// MiningEngine::SetTermPopularity; the spill policy then orders lists by
/// observed demand instead of static document frequency.
using TermPopularity = std::unordered_map<TermId, uint64_t>;

/// Configuration of one engine's (or one shard's) disk tier: the device
/// cost model plus the resident-memory budget its spill policy may pin.
struct DiskTierOptions {
  /// Device parameters: block (page) size, LRU cache depth, and the
  /// seek/transfer cost model (random vs sequential fetch charge). Only
  /// used by the modeled SimulatedDisk backend; a mapped backend measures
  /// instead of charging.
  DiskOptions disk;
  /// RAM the tier may spend pinning word lists, in bytes of resident
  /// packed entries (kListEntryBytes each, WordScoreLists::ListBytes) --
  /// the same bytes a spilled list occupies on the device. The spill
  /// policy pins the hottest lists -- by term document frequency, ties to
  /// the smaller TermId -- as a strict prefix of the hotness order:
  /// pinning stops at the first list that does not fit, and everything
  /// colder spills to the device (the "cold tail"). 0 means every list
  /// is disk-resident, the paper's Section 5.5 protocol.
  uint64_t resident_budget_bytes = 0;
  /// Observed query counts driving the hotness order (see HotnessOrder).
  /// Null (the default) keeps the static df order; when set, terms with
  /// higher observed counts pin first and df only breaks ties, so a
  /// re-placement after traffic shifted moves the budget to the lists the
  /// workload actually touches. Held as a shared immutable snapshot: the
  /// installer (MiningEngine::SetTermPopularity) may publish a newer map
  /// concurrently without invalidating a tier built from this one.
  std::shared_ptr<const TermPopularity> observed_popularity;
};

/// Where each persisted structure's bytes live inside an opened index
/// file: absolute file offsets of the word-lists entry runs (per term)
/// and of the phrase-list slots. MiningEngine captures this at load time
/// and hands it to DiskResidentLists, which then backs its device ranges
/// with the real mapped bytes instead of synthetic files.
struct MappedListLayout {
  /// term -> (absolute file offset of first entry, entry count).
  std::unordered_map<TermId, std::pair<uint64_t, uint64_t>> entry_runs;
  /// Absolute file offset of phrase slot 0 (kNoOffset when absent).
  uint64_t phrase_slots_offset = DiskBackend::kNoOffset;
};

/// Disk residency wrapper for the NRA/SMJ inputs: lays every *spilled*
/// word-specific score-ordered list out as its own device range
/// (12-byte packed entries, Section 4.2.2) and the phrase list as one
/// more range of fixed 50-byte slots (Section 4.2.1). The list *contents*
/// used for mining stay in memory; what the device does when the
/// algorithm touches bytes depends on the backend:
///   * SimulatedDisk (default) -- the paper's Section 5.5 protocol: only
///     the I/O cost is modeled, charged per touched page.
///   * MappedDisk over a persisted index file -- the ranges address the
///     structure's real bytes in the mapping, reads fault them in, and
///     the stats report measured blocks/bytes/time.
///
/// Placement is decided once at construction by the ResidentSet spill
/// policy below: lists inside the resident budget are pinned (their
/// reads charge nothing), the cold tail lives on the device. The phrase
/// list file is always device-resident -- it is the random-access lookup
/// the paper charges for result materialization, and pinning it is not
/// part of the word-list budget. Placement is deterministic: the same
/// lists, term dfs and budget always produce the same pinned set, which
/// is what keeps ranked output bitwise identical across budgets (the
/// budget moves cost, never contents).
class DiskResidentLists {
 public:
  /// Places `lists` on the tier under `options`, using `inverted` for
  /// the term-df hotness order of the spill policy. When `device` is
  /// null a SimulatedDisk over options.disk is created (modeled tier);
  /// otherwise the given backend is used, with `layout` mapping each
  /// structure to its on-device offsets (ranges without layout entries
  /// are registered unbacked and accounted arithmetically).
  DiskResidentLists(const WordScoreLists& lists,
                    const PhraseListFile& phrase_file,
                    const InvertedIndex& inverted, DiskTierOptions options,
                    std::unique_ptr<DiskBackend> device = nullptr,
                    MappedListLayout layout = {});

  DiskResidentLists(const DiskResidentLists&) = delete;
  DiskResidentLists& operator=(const DiskResidentLists&) = delete;

  /// The hotness order the spill policy pins by: terms of `lists` sorted
  /// hottest-first. With `observed` null the order is static -- df
  /// descending, ties to the smaller TermId (a pure function of the
  /// corpus). With observed counts the primary key becomes the count
  /// (descending): never-queried terms all carry count 0 and keep their
  /// relative df order, so feedback re-placement degrades gracefully to
  /// the static policy where the workload is silent.
  static std::vector<TermId> HotnessOrder(
      const WordScoreLists& lists, const InvertedIndex& inverted,
      const TermPopularity* observed = nullptr);

  /// The spill policy, exposed so CostPlanner can predict placement
  /// without building a tier: terms of `lists` in HotnessOrder, pinned
  /// while the next list's resident bytes (WordScoreLists::ListBytes)
  /// still fit the remaining budget; the first list that does not fit
  /// ends the pinning and the whole tail spills. Returns the pinned set
  /// -- always a strict prefix of HotnessOrder(lists, inverted,
  /// observed), which is the invariant feedback re-placement preserves
  /// (and tests assert).
  static std::unordered_set<TermId> ResidentSet(
      const WordScoreLists& lists, const InvertedIndex& inverted,
      uint64_t budget_bytes, const TermPopularity* observed = nullptr);

  /// Per-query arming of the charge points: installs the query's cancel
  /// token (null is fine) and clears any error latched by the previous
  /// query. The owning miner calls this at Mine() start, right after
  /// device().Reset(). Once the token's flag is set, every charge becomes
  /// a no-op -- a cancelled query stops accruing modeled I/O immediately,
  /// at flag-read cost (the clock is only consulted by the miner's batch
  /// checks, never here).
  void BeginQuery(const CancelToken* cancel) {
    cancel_ = cancel;
    error_ = Status::OK();
  }

  /// First device failure observed since BeginQuery (injected via the
  /// "disk.read" failpoint today; a real read error on a future backend
  /// takes the same latch). The charge methods return void -- pinned-list
  /// reads must stay free -- so errors latch here and the miner surfaces
  /// the latch at its batch cadence as MineResult::status.
  const Status& last_error() const { return error_; }

  /// A term list's placement, resolved once per mine by ListHandleOf:
  /// the device range id of a spilled list, or kPinnedList when the spill
  /// policy pinned it. The charge points take the handle so the per-entry
  /// path does no term-keyed lookup.
  using ListHandle = uint32_t;
  static constexpr ListHandle kPinnedList = ~0u;

  /// Resolves `term`'s handle. The term's list must be non-empty: empty
  /// lists register no device range and are never read.
  ListHandle ListHandleOf(TermId term) const;

  /// Charges the I/O for reading entry `pos` of a list; free when the
  /// spill policy pinned it.
  void ChargeListRead(ListHandle list, uint64_t pos) {
    if (list != kPinnedList) {
      ChargeRange(list, pos * kListEntryBytes, kListEntryBytes);
    }
  }

  /// Charges the I/O for streaming the first `entries` entries of a list
  /// sequentially (the SMJ construction/scan access pattern); free when
  /// pinned. One Read covering the whole prefix, so the device sees the
  /// sequential access instead of per-entry touches.
  void ChargeListScan(ListHandle list, uint64_t entries) {
    if (list != kPinnedList && entries != 0) {
      ChargeRange(list, 0, entries * kListEntryBytes);
    }
  }

  /// Charges the I/O for the final phrase-text lookup of a result id
  /// (a random access into the phrase list file; always device-resident).
  void ChargePhraseLookup(PhraseId id);

  /// True when the spill policy pinned this term's list in RAM.
  bool resident(TermId term) const { return resident_.contains(term); }

  /// Resident bytes the pinned lists occupy (<= the budget); with every
  /// list pinned, WordScoreLists::InMemoryBytes().
  uint64_t resident_bytes() const { return resident_bytes_; }
  /// Packed bytes living on the device across spilled lists.
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  std::size_t num_resident() const { return resident_.size(); }
  std::size_t num_spilled() const { return list_files_.size(); }

  /// The charging backend (modeled or measured).
  DiskBackend& device() { return *device_; }
  /// True when device() measures real mapped reads rather than charging
  /// the Section 5.5 cost model.
  bool measured() const { return device_->measured(); }

  const WordScoreLists& lists() const { return lists_; }
  const DiskTierOptions& tier_options() const { return options_; }

 private:
  /// Ctor tail: accounts resident bytes for pinned lists and registers a
  /// device range per spilled non-empty list plus the phrase file. Reads
  /// resident_ and layout_ for the on-device offsets of backed ranges.
  void PlaceAndRegister();

  /// The one charge implementation behind every charge point: admits the
  /// read (cancel flag, latched error, "disk.read" failpoint), then reads
  /// [offset, offset + n) of device range `range`.
  void ChargeRange(uint32_t range, uint64_t offset, uint64_t n);

  const WordScoreLists& lists_;
  const PhraseListFile& phrase_file_;
  DiskTierOptions options_;
  std::unique_ptr<DiskBackend> device_;
  MappedListLayout layout_;
  std::unordered_set<TermId> resident_;
  std::unordered_map<TermId, uint32_t> list_files_;  // spilled lists only
  uint64_t resident_bytes_ = 0;
  uint64_t spilled_bytes_ = 0;
  uint32_t phrase_file_id_ = 0;
  /// Per-query state installed by BeginQuery (single-query-at-a-time per
  /// tier, like device() itself -- concurrency comes from shards, each
  /// owning a private tier).
  const CancelToken* cancel_ = nullptr;
  Status error_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_DISK_LISTS_H_
