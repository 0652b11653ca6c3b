#ifndef PHRASEMINE_STORAGE_DISK_BACKEND_H_
#define PHRASEMINE_STORAGE_DISK_BACKEND_H_

#include <cstdint>

namespace phrasemine {

/// Aggregate I/O statistics for one run against a disk backend. For the
/// modeled backend (SimulatedDisk) fetches and cost_ms are charges from
/// the Section 5.5 cost model; for the measured backend (MappedDisk)
/// fetches are first touches of real mapped blocks and cost_ms is the
/// wall time of those fetches (touches of already-fetched blocks are not
/// timed).
struct DiskStats {
  uint64_t page_requests = 0;    ///< Logical page touches.
  uint64_t cache_hits = 0;       ///< Served from cache / already-touched.
  uint64_t sequential_fetches = 0;
  uint64_t random_fetches = 0;
  /// Logical bytes requested through Read() (AccessPage touches whole
  /// pages and is not counted here).
  uint64_t bytes_read = 0;
  double cost_ms = 0.0;          ///< Charged (modeled) or measured I/O time.

  /// Device blocks actually fetched (cache misses, prefetches included).
  uint64_t BlocksRead() const { return sequential_fetches + random_fetches; }
  /// Fetches that paid the random (seek) rate.
  uint64_t Seeks() const { return random_fetches; }
};

/// The charging seam between DiskResidentLists and its device: the tier
/// registers one byte range per spilled structure, then the miners issue
/// byte-range reads against it as they touch entries. Two backends
/// implement it:
///   * SimulatedDisk -- the paper's Section 5.5 cost model; ranges are
///     synthetic files, reads charge modeled milliseconds.
///   * MappedDisk (storage/index_file.h) -- ranges address a real mmapped
///     index file; reads touch the mapped bytes and stats() reports
///     measured blocks/bytes/time instead of modeled charges.
class DiskBackend {
 public:
  /// Range offset meaning "no backing bytes": the registered range is
  /// accounted arithmetically (block math over its size) but never
  /// dereferenced. SimulatedDisk treats every range this way; MappedDisk
  /// uses it for structures built after load, which have no bytes in the
  /// mapped file.
  static constexpr uint64_t kNoOffset = ~0ull;

  virtual ~DiskBackend() = default;

  /// Registers a readable range of `size_bytes` at `offset` within the
  /// backend's address space (kNoOffset for unbacked ranges); returns the
  /// range id Read() addresses.
  virtual uint32_t RegisterRange(uint64_t offset, uint64_t size_bytes) = 0;

  /// Reads [offset, offset + n) of range `file`, accruing stats (and, for
  /// a modeled backend, cost).
  virtual void Read(uint32_t file, uint64_t offset, uint64_t n) = 0;

  /// Clears counters *and* cache/touch state: the next reads start cold.
  virtual void Reset() = 0;

  virtual const DiskStats& stats() const = 0;

  /// True when stats() reports measured I/O against real bytes; false
  /// when they are modeled charges.
  virtual bool measured() const = 0;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_STORAGE_DISK_BACKEND_H_
