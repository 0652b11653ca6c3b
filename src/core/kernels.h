#ifndef PHRASEMINE_CORE_KERNELS_H_
#define PHRASEMINE_CORE_KERNELS_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/check.h"
#include "index/list_entry.h"
#include "index/soa_list.h"
#include "text/types.h"

namespace phrasemine {
namespace kernels {

/// Maximum lists per kernel call (matches the miners' 32-term cap).
inline constexpr std::size_t kMaxLists = 32;

/// Cancellation polling stride of the AND kernel's leapfrog loop (the OR
/// kernel polls at its natural skip-block boundaries instead): one deadline
/// check per this many touched positions keeps the poll off the
/// per-comparison hot path while bounding cancellation latency to one
/// stride.
inline constexpr uint64_t kCancelStride = 1024;

/// Branch-light galloping k-way AND intersection over id-ordered SoA
/// lists. Drives from the shortest list and leapfrogs the others via the
/// block skip headers. For every phrase present in ALL lists, in strictly
/// increasing id order, calls
///     emit(PhraseId id, const double* probs, uint32_t present_mask)
/// with probs[i] = list i's stored probability (list order) and
/// present_mask = the full r-bit mask. Returns the number of list
/// positions touched (landed on), the kernel-path analogue of
/// MineResult::entries_read.
///
/// `cancel` (optional) is polled once every kCancelStride touched
/// positions; an expired token stops the join early (the emitted prefix is
/// a valid partial intersection). Null cancel leaves the output and the
/// instruction stream bitwise unchanged.
template <typename Emit>
uint64_t GallopingAndJoin(std::span<const SoABlockList* const> lists,
                          Emit&& emit, const CancelToken* cancel = nullptr) {
  const std::size_t r = lists.size();
  PM_CHECK_MSG(r <= kMaxLists, "too many lists for the AND kernel");
  if (r == 0) return 0;
  for (const SoABlockList* l : lists) {
    if (l->empty()) return 0;  // An empty factor empties the intersection.
  }
  std::size_t drive = 0;
  for (std::size_t i = 1; i < r; ++i) {
    if (lists[i]->size() < lists[drive]->size()) drive = i;
  }

  // Leapfrog join: `target` is the current candidate id, set by whichever
  // list last overshot it; `agree` counts lists (the setter included)
  // whose current entry equals target. Rotation visits the other r-1
  // lists before it could revisit the setter, and target strictly
  // increases, so every list is probed at most once per agreement round.
  std::array<std::size_t, kMaxLists> pos{};
  std::array<double, kMaxLists> probs;
  const uint32_t full_mask = r >= 32 ? ~0u : ((1u << r) - 1);
  if (r == 1) {  // Degenerate single-list AND: emit every entry.
    const SoABlockList& l = *lists[0];
    for (std::size_t p = 0; p < l.size(); ++p) {
      if (cancel != nullptr && p != 0 && p % kCancelStride == 0 &&
          cancel->Expired()) {
        return p;
      }
      probs[0] = l.probs()[p];
      emit(l.ids()[p], probs.data(), full_mask);
    }
    return l.size();
  }
  uint64_t touched = 1;  // the driver's first entry
  PhraseId target = lists[drive]->ids()[0];
  std::size_t agree = 1;           // lists whose current id == target
  std::size_t turn = (drive + 1) % r;
  for (;;) {
    if (cancel != nullptr && touched % kCancelStride == 0 &&
        cancel->Expired()) {
      break;
    }
    const SoABlockList& l = *lists[turn];
    std::size_t& p = pos[turn];
    p = l.SkipTo(p, target);
    if (p >= l.size()) break;  // One list exhausted: no more matches.
    ++touched;
    const PhraseId id = l.ids()[p];
    if (id == target) {
      if (++agree == r) {  // Present everywhere: emit and advance.
        for (std::size_t j = 0; j < r; ++j) {
          probs[j] = lists[j]->probs()[pos[j]];
        }
        emit(target, probs.data(), full_mask);
        std::size_t& dp = pos[drive];
        if (++dp >= lists[drive]->size()) break;
        ++touched;
        target = lists[drive]->ids()[dp];
        agree = 1;
        turn = (drive + 1) % r;
        continue;
      }
    } else {  // id > target: this list becomes the setter of a new round.
      target = id;
      agree = 1;
    }
    turn = (turn + 1) % r;
  }
  return touched;
}

/// Block-at-a-time k-way OR merge over id-ordered SoA lists. Every
/// distinct phrase across the lists is emitted exactly once, in strictly
/// increasing id order, as
///     emit(PhraseId id, const double* probs, uint32_t present_mask)
/// with probs[i] = list i's probability when bit i of present_mask is set
/// and 0.0 otherwise -- exactly the per-term vector the textbook SMJ merge
/// assembles, so downstream scoring is bitwise identical. The outer loop
/// advances one skip-header boundary at a time so the inner merge runs
/// over resident blocks. Returns total entries consumed (= the sum of
/// list lengths, matching the textbook merge's entries_read).
///
/// `cancel` (optional) is polled at every skip-block boundary -- the
/// literal "block granularity" check; an expired token ends the merge with
/// the blocks drained so far. Null cancel changes nothing.
template <typename Emit>
uint64_t BlockOrMerge(std::span<const SoABlockList* const> lists,
                      Emit&& emit, const CancelToken* cancel = nullptr) {
  const std::size_t r = lists.size();
  PM_CHECK_MSG(r <= kMaxLists, "too many lists for the OR kernel");
  std::array<std::size_t, kMaxLists> pos{};
  std::array<double, kMaxLists> probs;
  uint64_t consumed = 0;
  for (;;) {
    if (cancel != nullptr && cancel->Expired()) break;
    // Boundary: the smallest current-block max id across live lists. All
    // entries <= boundary sit in already-located blocks.
    PhraseId boundary = 0;
    bool live = false;
    for (std::size_t i = 0; i < r; ++i) {
      if (pos[i] >= lists[i]->size()) continue;
      const PhraseId bmax = lists[i]->BlockMaxAt(pos[i]);
      boundary = live ? std::min(boundary, bmax) : bmax;
      live = true;
    }
    if (!live) break;
    for (;;) {  // Drain every entry <= boundary with a plain k-way merge.
      PhraseId min_id = kInvalidPhraseId;
      for (std::size_t i = 0; i < r; ++i) {
        if (pos[i] < lists[i]->size() && lists[i]->ids()[pos[i]] < min_id) {
          min_id = lists[i]->ids()[pos[i]];
        }
      }
      if (min_id == kInvalidPhraseId || min_id > boundary) break;
      uint32_t mask = 0;
      for (std::size_t i = 0; i < r; ++i) {
        double p = 0.0;
        if (pos[i] < lists[i]->size() && lists[i]->ids()[pos[i]] == min_id) {
          p = lists[i]->probs()[pos[i]];
          mask |= 1u << i;
          ++pos[i];
          ++consumed;
        }
        probs[i] = p;
      }
      emit(min_id, probs.data(), mask);
    }
  }
  return consumed;
}

/// Galloping k-way intersection of sorted unique u32 lists (document ids).
/// Output is exactly InvertedIndex::Intersect's: the sorted common subset.
std::vector<uint32_t> IntersectSorted(
    std::span<const std::vector<uint32_t>* const> lists);

/// K-way union of sorted unique u32 lists; output is exactly
/// InvertedIndex::Union's sorted duplicate-free union.
std::vector<uint32_t> UnionSorted(
    std::span<const std::vector<uint32_t>* const> lists);

/// Sorted-probe gather: for each strictly increasing probe id, the list's
/// stored probability (0.0 when absent), via one forward galloping pass
/// over the skip headers. This is the sharded fill round's support lookup:
/// probes = the candidate union, list = one term's id-ordered list.
/// Returns list positions touched.
uint64_t GatherProbes(const SoABlockList& list,
                      std::span<const PhraseId> sorted_probes,
                      double* out_probs);

}  // namespace kernels
}  // namespace phrasemine

#endif  // PHRASEMINE_CORE_KERNELS_H_
