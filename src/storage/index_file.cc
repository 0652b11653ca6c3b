#include "storage/index_file.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/io_util.h"
#include "testing/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define PHRASEMINE_HAVE_MMAP 1
#endif

namespace phrasemine {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// Fixed superblock geometry (see the header comment in index_file.h).
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kTableEntryBytes = 32;
constexpr std::size_t kChecksumBytes = 8;

uint64_t PageAlign(uint64_t offset) {
  const uint64_t page = kIndexPageBytes;
  return (offset + page - 1) / page * page;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, std::size_t n) {
  uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

// --- IndexFileWriter ---------------------------------------------------------

void IndexFileWriter::AddSection(IndexSection type,
                                 std::vector<uint8_t> payload) {
  for (const Pending& p : sections_) {
    PM_CHECK_MSG(p.type != type, "duplicate index file section type");
  }
  PM_CHECK_MSG(sections_.size() < kIndexMaxSections,
               "too many index file sections");
  sections_.push_back(Pending{type, std::move(payload)});
}

Status IndexFileWriter::WriteTo(const std::string& path) const {
  const std::size_t n = sections_.size();
  const uint64_t super_bytes =
      kHeaderBytes + n * kTableEntryBytes + kChecksumBytes;

  // Lay payloads out page-aligned after the superblock, then pad the file
  // to a whole number of pages.
  std::vector<uint64_t> offsets(n);
  uint64_t cur = PageAlign(super_bytes);
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = cur;
    cur = PageAlign(cur + sections_[i].payload.size());
  }
  const uint64_t file_bytes = n == 0 ? PageAlign(super_bytes) : cur;

  BinaryWriter header;
  header.PutU32(kIndexFileMagic);
  header.PutU32(kIndexFileVersion);
  header.PutU8(kIndexEndianLittle);
  header.PutU8(0);
  header.PutU8(0);
  header.PutU8(0);
  header.PutU32(kIndexPageBytes);
  header.PutU32(static_cast<uint32_t>(n));
  header.PutU32(0);  // reserved2
  header.PutU64(file_bytes);
  for (std::size_t i = 0; i < n; ++i) {
    header.PutU32(static_cast<uint32_t>(sections_[i].type));
    header.PutU32(0);  // reserved
    header.PutU64(offsets[i]);
    header.PutU64(sections_[i].payload.size());
    header.PutU64(Fnv1a64(sections_[i].payload.data(),
                          sections_[i].payload.size()));
  }
  const std::vector<uint8_t>& head = header.buffer();
  PM_CHECK(head.size() == kHeaderBytes + n * kTableEntryBytes);
  header.PutU64(Fnv1a64(head.data(), head.size()));

  std::vector<uint8_t> file(static_cast<std::size_t>(file_bytes), 0);
  std::memcpy(file.data(), header.buffer().data(), header.buffer().size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!sections_[i].payload.empty()) {
      std::memcpy(file.data() + offsets[i], sections_[i].payload.data(),
                  sections_[i].payload.size());
    }
  }

  // Write through a .tmp sibling and rename so a crash mid-write never
  // leaves a half-written file under the final name. Durability needs more
  // than atomicity: fflush only moves bytes into the page cache, so
  // without an fsync of the data (before the rename) and of the directory
  // (after it) a power cut could surface the final name with stale or
  // zero-length contents. Both syncs are POSIX-gated; platforms without
  // them keep the atomic-rename guarantee only.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for write: " + tmp);
  }
  const std::size_t written = std::fwrite(file.data(), 1, file.size(), f);
  bool flushed = std::fflush(f) == 0;
#if PHRASEMINE_HAVE_MMAP
  if (flushed && ::fsync(::fileno(f)) != 0) flushed = false;
#endif
  std::fclose(f);
  if (written != file.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  // Power-cut site for the durability regression test: the data is synced
  // in the .tmp but the final name does not exist (or still holds the
  // previous version) -- exactly the state a crash here would leave.
  if (Status s = PM_FAILPOINT("index_file.write.before_rename"); !s.ok()) {
    std::remove(tmp.c_str());
    return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " -> " + path);
  }
#if PHRASEMINE_HAVE_MMAP
  {
    // Make the rename itself durable: sync the containing directory's
    // entry table. Failure here is reported -- the caller believes the
    // persist survived a crash once this returns OK.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? std::string(".")
            : (slash == 0 ? std::string("/") : path.substr(0, slash));
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd < 0) {
      return Status::IOError("cannot open directory for fsync: " + dir);
    }
    const bool dir_synced = ::fsync(dfd) == 0;
    ::close(dfd);
    if (!dir_synced) {
      return Status::IOError("cannot fsync directory: " + dir);
    }
  }
#endif
  return Status::OK();
}

// --- IndexFile ---------------------------------------------------------------

IndexFile& IndexFile::operator=(IndexFile&& other) noexcept {
  if (this == &other) return *this;
  Release();
  path_ = std::move(other.path_);
  const bool owning = !other.mapped_;
  fallback_ = std::move(other.fallback_);
  data_ = owning && !fallback_.empty() ? fallback_.data() : other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  sections_ = std::move(other.sections_);
  open_ms_ = other.open_ms_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  return *this;
}

IndexFile::~IndexFile() { Release(); }

void IndexFile::Release() {
#if PHRASEMINE_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), static_cast<std::size_t>(size_));
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

Result<IndexFile> IndexFile::Open(const std::string& path) {
  // Corrupt-open site: chaos tests inject Corruption/IOError here to prove
  // a poisoned index surfaces as a typed Status, never a crash.
  if (Status s = PM_FAILPOINT("index_file.open"); !s.ok()) return s;
  const auto start = std::chrono::steady_clock::now();
  IndexFile out;
  out.path_ = path;

  std::error_code ec;
  const std::uintmax_t stat_size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IOError("cannot stat index file: " + path + ": " +
                           ec.message());
  }
  if (stat_size > std::numeric_limits<std::size_t>::max()) {
    return Status::IOError("index file too large to map: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(stat_size);
  if (size < kHeaderBytes + kChecksumBytes) {
    return Status::Corruption("index file truncated (smaller than header): " +
                              path);
  }

#if PHRASEMINE_HAVE_MMAP
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError("cannot open index file: " + path);
    }
    void* map = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                       MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map != MAP_FAILED) {
      out.data_ = static_cast<const uint8_t*>(map);
      out.size_ = size;
      out.mapped_ = true;
    }
  }
#endif
  if (out.data_ == nullptr) {
    // No mmap (or it failed): load the whole file into memory instead.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IOError("cannot open index file: " + path);
    }
    out.fallback_.resize(static_cast<std::size_t>(size));
    const std::size_t got =
        std::fread(out.fallback_.data(), 1, out.fallback_.size(), f);
    std::fclose(f);
    if (got != out.fallback_.size()) {
      return Status::IOError("short read from index file: " + path);
    }
    out.data_ = out.fallback_.data();
    out.size_ = size;
  }

  // Validate the superblock, strictest-signal first: magic, version,
  // endian stamp, geometry, header checksum, then per-section bounds and
  // payload checksums.
  BinaryReader reader(std::span<const uint8_t>(out.data_, out.size_));
  uint32_t magic = 0, version = 0;
  uint8_t endian = 0, r0 = 0, r1 = 0, r2 = 0;
  uint32_t page_bytes = 0, num_sections = 0, reserved2 = 0;
  uint64_t file_bytes = 0;
  Status s;
  if (!(s = reader.GetU32(&magic)).ok()) return s;
  if (magic != kIndexFileMagic) {
    return Status::Corruption("not a phrasemine index file (bad magic): " +
                              path);
  }
  if (!(s = reader.GetU32(&version)).ok()) return s;
  if (version != kIndexFileVersion) {
    return Status::Corruption("unsupported index file version " +
                              std::to_string(version) + ": " + path);
  }
  if (!(s = reader.GetU8(&endian)).ok()) return s;
  if (endian != kIndexEndianLittle) {
    return Status::Corruption(
        "index file written on a foreign-endian host: " + path);
  }
  if (!(s = reader.GetU8(&r0)).ok()) return s;
  if (!(s = reader.GetU8(&r1)).ok()) return s;
  if (!(s = reader.GetU8(&r2)).ok()) return s;
  if (!(s = reader.GetU32(&page_bytes)).ok()) return s;
  if (page_bytes != kIndexPageBytes) {
    return Status::Corruption("unexpected index file page size " +
                              std::to_string(page_bytes) + ": " + path);
  }
  if (!(s = reader.GetU32(&num_sections)).ok()) return s;
  if (num_sections > kIndexMaxSections) {
    return Status::Corruption("index file section count out of range: " +
                              path);
  }
  if (!(s = reader.GetU32(&reserved2)).ok()) return s;
  if (!(s = reader.GetU64(&file_bytes)).ok()) return s;
  if (file_bytes != out.size_) {
    return Status::Corruption(
        file_bytes > out.size_
            ? "index file truncated: " + path
            : "index file size mismatch (trailing garbage): " + path);
  }
  const uint64_t super_bytes =
      kHeaderBytes + static_cast<uint64_t>(num_sections) * kTableEntryBytes +
      kChecksumBytes;
  if (super_bytes > out.size_) {
    return Status::Corruption("index file truncated (section table): " + path);
  }

  out.sections_.reserve(num_sections);
  std::vector<uint64_t> payload_sums(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint32_t type = 0, reserved = 0;
    uint64_t offset = 0, payload = 0, checksum = 0;
    if (!(s = reader.GetU32(&type)).ok()) return s;
    if (!(s = reader.GetU32(&reserved)).ok()) return s;
    if (!(s = reader.GetU64(&offset)).ok()) return s;
    if (!(s = reader.GetU64(&payload)).ok()) return s;
    if (!(s = reader.GetU64(&checksum)).ok()) return s;
    if (type == 0) {
      return Status::Corruption("index file section has zero type: " + path);
    }
    if (offset % kIndexPageBytes != 0) {
      return Status::Corruption("index file section not page-aligned: " +
                                path);
    }
    // Overflow-safe bounds check: payload can't exceed the file, and the
    // section must end within it.
    if (payload > out.size_ || offset > out.size_ - payload ||
        offset < super_bytes) {
      return Status::Corruption("index file section out of bounds: " + path);
    }
    for (const Section& prior : out.sections_) {
      if (prior.type == static_cast<IndexSection>(type)) {
        return Status::Corruption("index file has duplicate section type: " +
                                  path);
      }
    }
    out.sections_.push_back(Section{static_cast<IndexSection>(type), offset,
                                    payload});
    payload_sums[i] = checksum;
  }

  const std::size_t table_end = kHeaderBytes + num_sections * kTableEntryBytes;
  uint64_t header_checksum = 0;
  if (!(s = reader.GetU64(&header_checksum)).ok()) return s;
  if (header_checksum != Fnv1a64(out.data_, table_end)) {
    return Status::Corruption("index file header checksum mismatch: " + path);
  }
  for (uint32_t i = 0; i < num_sections; ++i) {
    const Section& sec = out.sections_[i];
    if (payload_sums[i] !=
        Fnv1a64(out.data_ + sec.offset, static_cast<std::size_t>(sec.size))) {
      return Status::Corruption("index file section checksum mismatch: " +
                                path);
    }
  }

  out.open_ms_ = ElapsedMs(start);
  return out;
}

const IndexFile::Section* IndexFile::Find(IndexSection type) const {
  for (const Section& s : sections_) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

bool IndexFile::has_section(IndexSection type) const {
  return Find(type) != nullptr;
}

std::span<const uint8_t> IndexFile::section(IndexSection type) const {
  const Section* s = Find(type);
  if (s == nullptr) return {};
  return std::span<const uint8_t>(data_ + s->offset,
                                  static_cast<std::size_t>(s->size));
}

uint64_t IndexFile::section_offset(IndexSection type) const {
  const Section* s = Find(type);
  return s == nullptr ? DiskBackend::kNoOffset : s->offset;
}

// --- MappedDisk --------------------------------------------------------------

namespace {
constexpr uint64_t kBlockBytes = kIndexPageBytes;
}  // namespace

MappedDisk::MappedDisk(const IndexFile* file) : file_(file) {
  // Unbacked ranges live in a synthetic address space past the end of the
  // file, with a one-block gap between ranges so distinct structures are
  // never block-adjacent (mirroring the simulator's distinct files).
  const uint64_t end = file_ == nullptr ? 0 : file_->file_bytes();
  synthetic_next_ = PageAlign(end) + kBlockBytes;
}

uint32_t MappedDisk::RegisterRange(uint64_t offset, uint64_t size_bytes) {
  Range r;
  r.size = size_bytes;
  const bool backed = offset != kNoOffset && file_ != nullptr &&
                      file_->data() != nullptr && size_bytes > 0 &&
                      offset <= file_->file_bytes() &&
                      size_bytes <= file_->file_bytes() - offset;
  if (backed) {
    r.base = offset;
    r.backed = true;
  } else {
    r.base = synthetic_next_;
    synthetic_next_ = PageAlign(synthetic_next_ + size_bytes) + kBlockBytes;
  }
  const uint64_t blocks =
      size_bytes == 0
          ? 0
          : (r.base + size_bytes - 1) / kBlockBytes - r.base / kBlockBytes + 1;
  r.touched.assign(static_cast<std::size_t>((blocks + 63) / 64), 0);
  const uint32_t id = static_cast<uint32_t>(ranges_.size());
  ranges_.push_back(std::move(r));
  return id;
}

void MappedDisk::Read(uint32_t file, uint64_t offset, uint64_t n) {
  if (n == 0) return;
  // Latency-injection site (a stalling device); injected errors are
  // surfaced by the tier-level "disk.read" site, not here -- this
  // measured path has no error channel.
  if (failpoint::Enabled()) (void)PM_FAILPOINT("disk.mapped.read");
  PM_CHECK(file < ranges_.size());
  Range& r = ranges_[file];
  PM_CHECK_MSG(offset <= r.size && n <= r.size - offset,
               "read past end of registered range");
  stats_.bytes_read += n;

  // The clock starts at the call's first block fetch: touches of
  // already-fetched blocks are bitmap lookups, and timing them would cost
  // more than the lookups themselves.
  std::chrono::steady_clock::time_point start;
  bool fetched = false;
  const uint64_t range_first = r.base / kBlockBytes;
  const uint64_t first = (r.base + offset) / kBlockBytes;
  const uint64_t last = (r.base + offset + n - 1) / kBlockBytes;
  for (uint64_t block = first; block <= last; ++block) {
    ++stats_.page_requests;
    const uint64_t bit = block - range_first;
    uint64_t& word = r.touched[static_cast<std::size_t>(bit / 64)];
    const uint64_t mask = 1ull << (bit % 64);
    if (word & mask) {
      ++stats_.cache_hits;
      continue;
    }
    word |= mask;
    if (!fetched) {
      fetched = true;
      start = std::chrono::steady_clock::now();
    }
    const bool sequential = has_last_block_ && block == last_block_ + 1;
    if (sequential) {
      ++stats_.sequential_fetches;
    } else {
      ++stats_.random_fetches;
    }
    has_last_block_ = true;
    last_block_ = block;
    if (r.backed) {
      // Fault the block in: one volatile read per block is enough to make
      // the kernel page the data into memory, which is the cost measured.
      const uint64_t addr = std::max(block * kBlockBytes, r.base);
      static_cast<void>(
          *static_cast<const volatile uint8_t*>(file_->data() + addr));
    }
  }
  if (fetched) stats_.cost_ms += ElapsedMs(start);
}

void MappedDisk::Reset() {
  stats_ = DiskStats{};
  has_last_block_ = false;
  for (Range& r : ranges_) {
    std::fill(r.touched.begin(), r.touched.end(), 0);
  }
#if PHRASEMINE_HAVE_MMAP
  // Drop the resident pages so the next touches re-fault (a measured cold
  // start). Best-effort: the data is still correct if madvise fails.
  if (file_ != nullptr && file_->data() != nullptr && file_->file_bytes() > 0) {
    ::madvise(const_cast<uint8_t*>(file_->data()),
              static_cast<std::size_t>(file_->file_bytes()), MADV_DONTNEED);
  }
#endif
}

}  // namespace phrasemine
