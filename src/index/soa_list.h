#ifndef PHRASEMINE_INDEX_SOA_LIST_H_
#define PHRASEMINE_INDEX_SOA_LIST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/list_entry.h"
#include "text/types.h"

namespace phrasemine {

namespace kernels {

/// True when the AVX2 intra-block scan is compiled in AND the CPU supports
/// it (checked once at runtime); the SSE2/scalar path is used otherwise.
/// Either path returns identical values -- the dispatch is purely a speed
/// decision, which is what keeps kernel results bitwise reproducible
/// across machines.
bool HasAvx2();

/// Number of elements < target in the sorted range [a, a + n). Because the
/// range is sorted this equals the lower-bound index, computed as a
/// branch-free SIMD count (AVX2/SSE2 on x86-64, an autovectorizable scalar
/// loop elsewhere).
std::size_t CountLessU32(const uint32_t* a, std::size_t n, uint32_t target);

/// Lower bound over a sorted u32 array starting the search at `from`:
/// gallops to bracket the target, binary-narrows to a small window, then
/// SIMD-counts within it. Returns the first index in [from, n) with
/// a[i] >= target, or n.
std::size_t LowerBoundU32(const uint32_t* a, std::size_t n, std::size_t from,
                          uint32_t target);

}  // namespace kernels

/// Packed structure-of-arrays form of one word list -- the only in-memory
/// form of a list in either order (an AoS `ListEntry` run is transient
/// build input and the file format): phrase ids and probabilities live in
/// two contiguous parallel arrays, exactly kListEntryBytes per entry
/// (plus the id order's skip headers).
///
///   * Score-ordered (NRA input, prob desc then id asc): walked front to
///     back. It carries no skip headers -- a block's max score is simply
///     its first prob.
///   * Id-ordered (SMJ input, strictly increasing ids): split into
///     fixed-size blocks with a per-block max-id skip header. The id array
///     is what the merge kernels (core/kernels.h) actually scan, so a
///     cache line carries 16 ids instead of 4 padded entries, and the skip
///     headers let an AND intersection jump whole blocks without touching
///     them. Probabilities are only loaded for positions a kernel lands on.
///
/// Instances are immutable after construction and shared by pointer
/// (SharedSoAList).
class SoABlockList {
 public:
  /// Entries per block. 128 ids = 512 bytes = 8 cache lines per header,
  /// small enough that one intra-block SIMD count resolves a skip.
  static constexpr std::size_t kBlockEntries = 128;

  SoABlockList() = default;

  /// Builds the SoA form of an id-ordered entry run (ids must be strictly
  /// increasing, as WordIdOrderedLists guarantees), skip headers included.
  static SoABlockList FromIdOrdered(std::span<const ListEntry> entries);

  /// Adopts the parallel arrays of a score-ordered list (equal lengths).
  /// No skip headers: SkipTo and BlockMaxAt are id-order only.
  static SoABlockList FromScoreOrdered(std::vector<PhraseId> ids,
                                       std::vector<double> probs);

  /// One-pass merge of an id-ordered list with id-ordered extra entries
  /// that share no phrase with it (the delta overlay's delta-only pairs):
  /// the result is the SoA form of std::merge of the two runs.
  static SoABlockList Merged(const SoABlockList& base,
                             std::span<const ListEntry> extras);

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const PhraseId* ids() const { return ids_.data(); }
  const double* probs() const { return probs_.data(); }

  /// First position >= `from` whose id is >= `target`; size() when none.
  /// Id-ordered lists only. Consults the block skip headers, so skipping
  /// far ahead costs one binary search over headers plus one intra-block
  /// count instead of a linear walk.
  std::size_t SkipTo(std::size_t from, PhraseId target) const;

  /// Largest id of the block containing position `pos` (precondition:
  /// pos < size(); id-ordered lists only). The OR merge uses this as its
  /// per-block boundary.
  PhraseId BlockMaxAt(std::size_t pos) const {
    return block_max_[pos / kBlockEntries];
  }

  /// Resident bytes of the SoA arrays (ids + probs + any headers).
  std::size_t MemoryBytes() const;

 private:
  /// Fills block_max_ from the packed id array.
  void BuildSkipHeaders();

  std::vector<PhraseId> ids_;
  std::vector<double> probs_;
  std::vector<PhraseId> block_max_;  // skip headers, one per block
};

/// A shared immutable SoA list; built once per physical list and shared by
/// the engine's lists, per-query overlay bundles and the fleet's legs.
using SharedSoAList = std::shared_ptr<const SoABlockList>;

}  // namespace phrasemine

#endif  // PHRASEMINE_INDEX_SOA_LIST_H_
