#ifndef PHRASEMINE_COMMON_CANCEL_H_
#define PHRASEMINE_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>

namespace phrasemine {

/// Cooperative cancellation handle for one query. The service materializes
/// one per deadline-carrying request and threads a pointer through
/// MineOptions::cancel; every execution leg (NRA traversal, SMJ merges, SoA
/// kernels, Exact/GM forward scans, sharded scatter/fill, disk-tier charge
/// points) polls it at block
/// granularity and unwinds with Status::DeadlineExceeded when it fires.
///
/// Two trigger paths share one latch:
///  - an absolute deadline (AfterMillis) -- Expired() compares the steady
///    clock and latches on the first observation past the deadline;
///  - an explicit Cancel() from any thread.
///
/// The latch makes cancellation cheap to fan out: one leg paying the clock
/// read in Expired() publishes the verdict, and sibling shard legs see it
/// through the relaxed-atomic cancelled() flag without touching the clock.
/// Checks are cooperative -- nothing is preempted, so cancellation latency
/// is bounded by the checking cadence (one block / batch / merge round),
/// not by the token.
class CancelToken {
 public:
  /// A token that never expires on its own (Cancel() still works).
  CancelToken() = default;

  /// A token whose deadline is `ms` milliseconds from now.
  static CancelToken AfterMillis(double ms) {
    CancelToken token;
    token.has_deadline_ = true;
    token.deadline_ = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(ms));
    return token;
  }

  CancelToken(CancelToken&& other) noexcept
      : deadline_(other.deadline_),
        has_deadline_(other.has_deadline_),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; every subsequent cancelled()/Expired() is true.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Flag-only check: true once Cancel() was called or a prior Expired()
  /// observed the deadline. Never reads the clock -- this is the check for
  /// per-entry hot paths (disk charge points, sibling shard legs).
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// Full check: cancelled(), else compares the deadline against the steady
  /// clock and latches the verdict so siblings see it via cancelled().
  bool Expired() const {
    if (cancelled()) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool has_deadline() const { return has_deadline_; }

  /// Milliseconds until the deadline (negative once past); a very large
  /// value when the token has no deadline.
  double remaining_ms() const {
    if (cancelled()) return 0.0;
    if (!has_deadline_) return 1e18;
    return std::chrono::duration<double, std::milli>(
               deadline_ - std::chrono::steady_clock::now())
        .count();
  }

 private:
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  mutable std::atomic<bool> cancelled_{false};
};

/// Null-safe helpers for the common "token is optional" call sites.
inline bool CancelRequested(const CancelToken* token) {
  return token != nullptr && token->cancelled();
}
inline bool CancelExpired(const CancelToken* token) {
  return token != nullptr && token->Expired();
}

/// Cancellation cadence of the count-based scans (ExactMiner, GmMiner and
/// the fleet's count scatter and fill legs: one full check every
/// kCancelDocStride sub-collection documents; SimitsisMiner: one every
/// kCancelDocStride posting-list documents read).
inline constexpr std::size_t kCancelDocStride = 64;

}  // namespace phrasemine

#endif  // PHRASEMINE_COMMON_CANCEL_H_
