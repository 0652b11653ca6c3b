#ifndef PHRASEMINE_STORAGE_INDEX_FILE_H_
#define PHRASEMINE_STORAGE_INDEX_FILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/disk_backend.h"

namespace phrasemine {

/// Section (page-run) types of the phrasemine index file. Values are part
/// of the on-disk format: never renumber, only append. A reader skips
/// section types it does not know, so new sections are backward-compatible
/// within one format version.
enum class IndexSection : uint32_t {
  kVocabulary = 1,
  kCorpusDocs = 2,
  kPhraseDictionary = 3,
  kInvertedIndex = 4,
  kForwardIndexFull = 5,
  kForwardIndexCompressed = 6,
  kPhraseListFile = 7,
  kWordScoreLists = 8,
  /// Free-form payload for the owner (ShardedEngine persists its global
  /// dictionary + document-location tables here).
  kManifest = 9,
};

/// On-disk constants of the index file format, version 1.
///
///   superblock   page 0: header + section table + header checksum
///   sections     each section's payload starts on a page boundary and
///                runs over ceil(payload/page) typed pages
///
/// Header (32 bytes, little-endian -- enforced by io_util.h):
///   u32 magic        "PMIX" = 0x58494D50
///   u32 version      1
///   u8  endian       1 = little (stamped so a foreign-endian file fails
///                    with Corruption instead of decoding garbage)
///   u8[3] reserved   0
///   u32 page_bytes   4096
///   u32 num_sections
///   u32 reserved2    0
///   u64 file_bytes   total file size (truncation check)
/// Section table (32 bytes per section, immediately after the header):
///   u32 type         IndexSection value
///   u32 reserved     0
///   u64 offset       payload file offset (page-aligned)
///   u64 payload_bytes
///   u64 checksum     FNV-1a 64 over the payload bytes
/// Then u64 header_checksum: FNV-1a 64 over header + section table.
///
/// Versioning rules: bump kIndexFileVersion on any incompatible layout
/// change (readers reject other versions with Corruption); adding section
/// types is compatible and does not bump the version.
inline constexpr uint32_t kIndexFileMagic = 0x58494D50;  // "PMIX"
inline constexpr uint32_t kIndexFileVersion = 1;
inline constexpr uint32_t kIndexPageBytes = 4096;
inline constexpr uint8_t kIndexEndianLittle = 1;
inline constexpr uint32_t kIndexMaxSections = 1024;

/// FNV-1a 64-bit hash, the file's checksum function (no external deps).
uint64_t Fnv1a64(const uint8_t* data, std::size_t n);

/// One-shot builder: collect serialized structures as typed sections, then
/// write the whole file (superblock, table, page-aligned payloads) at once.
class IndexFileWriter {
 public:
  /// Appends one section. Order is preserved; one type may appear at most
  /// once per file.
  void AddSection(IndexSection type, std::vector<uint8_t> payload);

  /// Writes the complete index file to `path` (atomically via a .tmp
  /// sibling + rename, so a crashed writer never leaves a half-written
  /// file under the final name).
  Status WriteTo(const std::string& path) const;

  std::size_t num_sections() const { return sections_.size(); }

 private:
  struct Pending {
    IndexSection type;
    std::vector<uint8_t> payload;
  };
  std::vector<Pending> sections_;
};

/// A validated, read-only view of one index file: the superblock is parsed
/// and every checksum verified at Open, then sections are handed out as
/// borrowed byte spans for zero-copy decoding (BinaryReader's span ctor).
/// On POSIX the file is mmapped (spans point into the mapping); elsewhere
/// it is read into memory. Move-only; the mapping lives as long as the
/// object, so spans and borrowing readers must not outlive it.
class IndexFile {
 public:
  /// Opens and fully validates `path`: magic, version, endian stamp, size,
  /// header checksum, section bounds/alignment, then every section payload
  /// checksum. Malformed input fails with Corruption, unreadable files
  /// with IOError. The wall time spent (the measured cold-open cost, which
  /// touches every payload byte once via the checksums) is in open_ms().
  static Result<IndexFile> Open(const std::string& path);

  IndexFile(IndexFile&& other) noexcept { *this = std::move(other); }
  IndexFile& operator=(IndexFile&& other) noexcept;
  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;
  ~IndexFile();

  bool has_section(IndexSection type) const;

  /// Payload bytes of a section; empty span when absent.
  std::span<const uint8_t> section(IndexSection type) const;

  /// File offset of a section's payload, or DiskBackend::kNoOffset when
  /// absent. MappedDisk ranges use these offsets as their addresses.
  uint64_t section_offset(IndexSection type) const;

  uint64_t file_bytes() const { return size_; }
  /// Wall-clock milliseconds Open spent mapping + validating.
  double open_ms() const { return open_ms_; }
  const std::string& path() const { return path_; }

  /// Base of the mapped (or loaded) file bytes.
  const uint8_t* data() const { return data_; }

 private:
  IndexFile() = default;
  void Release();

  struct Section {
    IndexSection type;
    uint64_t offset = 0;
    uint64_t size = 0;
  };
  const Section* Find(IndexSection type) const;

  std::string path_;
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  bool mapped_ = false;               // true: munmap on destruction
  std::vector<uint8_t> fallback_;     // owns bytes when not mapped
  std::vector<Section> sections_;
  double open_ms_ = 0.0;
};

/// Measured disk backend over an opened IndexFile: where SimulatedDisk
/// charges the Section 5.5 cost model, MappedDisk actually touches the
/// mapped bytes and reports what happened -- blocks are first touches of
/// kIndexPageBytes-sized blocks of the mapping, sequential/random is
/// decided by block adjacency (same head-position rule as the simulator),
/// and cost_ms is the wall time of block fetches: each Read is timed from
/// its first fetch (first touch, page fault included) to its end, and a
/// Read whose blocks were all touched already adds nothing. Ranges
/// registered at kNoOffset (structures built after load, with no bytes in
/// the file) are accounted arithmetically over a synthetic address space
/// past the end of the file and never dereferenced.
///
/// Reset() clears the touch state so the next reads count cold again; on
/// POSIX it also madvise(MADV_DONTNEED)s the mapping so the kernel drops
/// the resident pages and the touches re-fault.
class MappedDisk final : public DiskBackend {
 public:
  /// `file` must outlive this backend; may be null (pure arithmetic mode,
  /// every range behaves as unbacked).
  explicit MappedDisk(const IndexFile* file);

  uint32_t RegisterRange(uint64_t offset, uint64_t size_bytes) override;
  void Read(uint32_t file, uint64_t offset, uint64_t n) override;
  void Reset() override;
  const DiskStats& stats() const override { return stats_; }
  bool measured() const override { return true; }

 private:
  struct Range {
    uint64_t base = 0;       // absolute byte offset (real or synthetic)
    uint64_t size = 0;
    bool backed = false;     // true: base addresses real mapped bytes
    std::vector<uint64_t> touched;  // first-touch bitmap, one bit per block
  };

  const IndexFile* file_;
  std::vector<Range> ranges_;
  uint64_t synthetic_next_ = 0;  // next synthetic base for unbacked ranges
  bool has_last_block_ = false;
  uint64_t last_block_ = 0;
  DiskStats stats_;
};

}  // namespace phrasemine

#endif  // PHRASEMINE_STORAGE_INDEX_FILE_H_
