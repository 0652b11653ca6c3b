#include "index/soa_list.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

#if defined(__x86_64__) || defined(_M_X64)
#define PHRASEMINE_X86_64 1
#include <immintrin.h>
#endif

namespace phrasemine {

namespace kernels {

namespace {

#if !defined(PHRASEMINE_X86_64)
std::size_t CountLessScalar(const uint32_t* a, std::size_t n,
                            uint32_t target) {
  // Branch-free accumulation; autovectorizes on both gcc and clang.
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += a[i] < target ? 1u : 0u;
  return count;
}
#endif

#if PHRASEMINE_X86_64

// SSE2 is part of the x86-64 baseline: always available, no dispatch.
std::size_t CountLessSse2(const uint32_t* a, std::size_t n, uint32_t target) {
  // cmpgt is signed; XOR with the sign bit maps unsigned order onto it.
  const __m128i flip = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i t =
      _mm_set1_epi32(static_cast<int>(target ^ 0x80000000u));
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    v = _mm_xor_si128(v, flip);
    const __m128i lt = _mm_cmpgt_epi32(t, v);  // a[i] < target
    count += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(lt)))));
  }
  for (; i < n; ++i) count += a[i] < target ? 1u : 0u;
  return count;
}

#if defined(__GNUC__) || defined(__clang__)
#define PHRASEMINE_HAS_AVX2_PATH 1

__attribute__((target("avx2"))) std::size_t CountLessAvx2(const uint32_t* a,
                                                          std::size_t n,
                                                          uint32_t target) {
  const __m256i flip = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i t =
      _mm256_set1_epi32(static_cast<int>(target ^ 0x80000000u));
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    v = _mm256_xor_si256(v, flip);
    const __m256i lt = _mm256_cmpgt_epi32(t, v);  // a[i] < target
    count += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(lt)))));
  }
  for (; i < n; ++i) count += a[i] < target ? 1u : 0u;
  return count;
}

#endif  // __GNUC__ || __clang__
#endif  // PHRASEMINE_X86_64

}  // namespace

bool HasAvx2() {
#if defined(PHRASEMINE_HAS_AVX2_PATH)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

std::size_t CountLessU32(const uint32_t* a, std::size_t n, uint32_t target) {
#if defined(PHRASEMINE_HAS_AVX2_PATH)
  if (n >= 8 && HasAvx2()) return CountLessAvx2(a, n, target);
#endif
#if PHRASEMINE_X86_64
  return CountLessSse2(a, n, target);
#else
  return CountLessScalar(a, n, target);
#endif
}

std::size_t LowerBoundU32(const uint32_t* a, std::size_t n, std::size_t from,
                          uint32_t target) {
  if (from >= n) return n;
  if (a[from] >= target) return from;
  // Gallop to bracket the target so a short probe into a long list costs
  // O(log distance) instead of O(distance).
  std::size_t step = 1;
  std::size_t lo = from;              // a[lo] < target
  std::size_t hi = from + step;
  while (hi < n && a[hi] < target) {
    lo = hi;
    step <<= 1;
    hi = from + step;
  }
  hi = std::min(hi, n);               // a[hi] >= target (or hi == n)
  // Binary-narrow to one SIMD window, then count within it.
  constexpr std::size_t kWindow = 128;
  while (hi - lo > kWindow) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (a[mid] < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo + CountLessU32(a + lo, hi - lo, target);
}

}  // namespace kernels

SoABlockList SoABlockList::FromIdOrdered(std::span<const ListEntry> entries) {
  SoABlockList list;
  list.ids_.reserve(entries.size());
  list.probs_.reserve(entries.size());
  for (const ListEntry& e : entries) {
    list.ids_.push_back(e.phrase);
    list.probs_.push_back(e.prob);
  }
  list.BuildSkipHeaders();
  return list;
}

SoABlockList SoABlockList::FromScoreOrdered(std::vector<PhraseId> ids,
                                            std::vector<double> probs) {
  PM_CHECK_MSG(ids.size() == probs.size(), "SoA arrays differ in length");
  SoABlockList list;
  list.ids_ = std::move(ids);
  list.probs_ = std::move(probs);
  return list;
}

SoABlockList SoABlockList::Merged(const SoABlockList& base,
                                  std::span<const ListEntry> extras) {
  SoABlockList list;
  const std::size_t n = base.size() + extras.size();
  list.ids_.reserve(n);
  list.probs_.reserve(n);
  std::size_t i = 0;
  for (const ListEntry& e : extras) {
    for (; i < base.size() && base.ids_[i] < e.phrase; ++i) {
      list.ids_.push_back(base.ids_[i]);
      list.probs_.push_back(base.probs_[i]);
    }
    list.ids_.push_back(e.phrase);
    list.probs_.push_back(e.prob);
  }
  list.ids_.insert(list.ids_.end(), base.ids_.begin() + i, base.ids_.end());
  list.probs_.insert(list.probs_.end(), base.probs_.begin() + i,
                     base.probs_.end());
  list.BuildSkipHeaders();
  return list;
}

void SoABlockList::BuildSkipHeaders() {
  const std::size_t n = ids_.size();
  block_max_.clear();
  block_max_.reserve((n + kBlockEntries - 1) / kBlockEntries);
  for (std::size_t b = 0; b * kBlockEntries < n; ++b) {
    block_max_.push_back(ids_[std::min(n, (b + 1) * kBlockEntries) - 1]);
  }
}

std::size_t SoABlockList::SkipTo(std::size_t from, PhraseId target) const {
  const std::size_t n = ids_.size();
  if (from >= n) return n;
  if (ids_[from] >= target) return from;
  std::size_t b = from / kBlockEntries;
  if (block_max_[b] < target) {
    // Jump via the skip headers: every entry of a block whose max id is
    // below the target is below it too.
    b = static_cast<std::size_t>(
        std::lower_bound(block_max_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                         block_max_.end(), target) -
        block_max_.begin());
    if (b >= block_max_.size()) return n;
    from = b * kBlockEntries;
    if (ids_[from] >= target) return from;
  }
  const std::size_t end = std::min(n, (b + 1) * kBlockEntries);
  return from + kernels::CountLessU32(ids_.data() + from, end - from, target);
}

std::size_t SoABlockList::MemoryBytes() const {
  return ids_.capacity() * sizeof(PhraseId) +
         probs_.capacity() * sizeof(double) +
         block_max_.capacity() * sizeof(PhraseId);
}

}  // namespace phrasemine
