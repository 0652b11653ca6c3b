// Index file format: writer/reader round trip, the corruption matrix the
// validator must reject, and the measured MappedDisk backend's first-touch
// accounting over a mapped file.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "gtest/gtest.h"
#include "storage/index_file.h"
#include "testing/failpoint.h"

namespace phrasemine {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> Payload(std::size_t n, uint8_t seed) {
  std::vector<uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return bytes;
}

/// Writes a small two-section file and returns its path.
std::string WriteSample(const char* name) {
  IndexFileWriter writer;
  writer.AddSection(IndexSection::kVocabulary, Payload(100, 3));
  writer.AddSection(IndexSection::kWordScoreLists, Payload(10000, 11));
  const std::string path = TempPath(name);
  EXPECT_TRUE(writer.WriteTo(path).ok());
  return path;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  auto reader = BinaryReader::FromFile(path);
  EXPECT_TRUE(reader.ok());
  std::vector<uint8_t> bytes(reader.value().Remaining());
  EXPECT_TRUE(reader.value().GetRaw(bytes.data(), bytes.size()).ok());
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  BinaryWriter w;
  w.PutRaw(bytes.data(), bytes.size());
  ASSERT_TRUE(w.WriteToFile(path).ok());
}

TEST(IndexFileTest, RoundTripPreservesSections) {
  const std::string path = WriteSample("roundtrip.pmidx");
  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok());
  const IndexFile& f = file.value();

  EXPECT_TRUE(f.has_section(IndexSection::kVocabulary));
  EXPECT_TRUE(f.has_section(IndexSection::kWordScoreLists));
  EXPECT_FALSE(f.has_section(IndexSection::kManifest));
  EXPECT_EQ(f.section_offset(IndexSection::kManifest), DiskBackend::kNoOffset);

  const auto vocab = f.section(IndexSection::kVocabulary);
  const auto lists = f.section(IndexSection::kWordScoreLists);
  ASSERT_EQ(vocab.size(), 100u);
  ASSERT_EQ(lists.size(), 10000u);
  const std::vector<uint8_t> expected_vocab = Payload(100, 3);
  const std::vector<uint8_t> expected_lists = Payload(10000, 11);
  EXPECT_TRUE(std::equal(vocab.begin(), vocab.end(), expected_vocab.begin()));
  EXPECT_TRUE(std::equal(lists.begin(), lists.end(), expected_lists.begin()));

  // Payloads start on page boundaries and the file is whole pages.
  EXPECT_EQ(f.section_offset(IndexSection::kVocabulary) % kIndexPageBytes, 0u);
  EXPECT_EQ(f.section_offset(IndexSection::kWordScoreLists) % kIndexPageBytes,
            0u);
  EXPECT_EQ(f.file_bytes() % kIndexPageBytes, 0u);
  EXPECT_GE(f.open_ms(), 0.0);
  std::remove(path.c_str());
}

TEST(IndexFileTest, OpenMissingFileIsIOError) {
  auto file = IndexFile::Open(TempPath("nonexistent.pmidx"));
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

TEST(IndexFileTest, RejectsBadMagic) {
  const std::string path = WriteSample("badmagic.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[0] ^= 0xFF;
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, RejectsUnsupportedVersion) {
  const std::string path = WriteSample("badversion.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[4] = 99;  // version field
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, RejectsForeignEndianStamp) {
  const std::string path = WriteSample("badendian.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[8] = 2;  // endian stamp: 1 = little
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, RejectsTruncation) {
  const std::string path = WriteSample("truncated.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() / 2);
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, RejectsTrailingGarbage) {
  const std::string path = WriteSample("trailing.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.insert(bytes.end(), 64, 0xAB);
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, RejectsFlippedPayloadByte) {
  const std::string path = WriteSample("payloadflip.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  // Flip a byte in the middle of the second section's payload (vocab fills
  // page 1, lists start at page 2) so only its checksum can catch it --
  // tail padding is not covered, a mid-payload byte is.
  bytes[2 * kIndexPageBytes + 5000] ^= 0x01;
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, RejectsFlippedTableByte) {
  const std::string path = WriteSample("tableflip.pmidx");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[40] ^= 0x01;  // inside the first section-table entry
  WriteAll(path, bytes);
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IndexFileTest, FileTooSmallForHeader) {
  const std::string path = TempPath("tiny.pmidx");
  WriteAll(path, std::vector<uint8_t>(8, 0));
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(MappedDiskTest, ColdReadThenCacheHit) {
  const std::string path = WriteSample("mapped.pmidx");
  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok());
  MappedDisk disk(&file.value());
  const uint32_t r = disk.RegisterRange(
      file.value().section_offset(IndexSection::kWordScoreLists), 10000);

  disk.Read(r, 0, 10000);  // 10000 bytes span 3 mapped 4 KiB blocks
  EXPECT_EQ(disk.stats().BlocksRead(), 3u);
  EXPECT_EQ(disk.stats().bytes_read, 10000u);
  // First block is a seek, the rest stream sequentially.
  EXPECT_EQ(disk.stats().Seeks(), 1u);
  EXPECT_EQ(disk.stats().sequential_fetches, 2u);

  disk.Read(r, 0, 10000);  // warm: every block already touched
  EXPECT_EQ(disk.stats().BlocksRead(), 3u);
  EXPECT_EQ(disk.stats().cache_hits, 3u);

  disk.Reset();  // cold again
  disk.Read(r, 0, 4096);
  EXPECT_EQ(disk.stats().BlocksRead(), 1u);
  EXPECT_TRUE(disk.measured());
  std::remove(path.c_str());
}

TEST(MappedDiskTest, OnlyBlockFetchesAreTimed) {
  // cost_ms is the wall time of block fetches: a Read whose blocks were
  // all touched already adds nothing to it (bitwise), only cache hits.
  const std::string path = WriteSample("clock.pmidx");
  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok());
  MappedDisk disk(&file.value());
  const uint32_t r = disk.RegisterRange(
      file.value().section_offset(IndexSection::kWordScoreLists), 10000);

  disk.Read(r, 0, 4096);  // fetches block 0
  const DiskStats cold = disk.stats();
  EXPECT_EQ(cold.BlocksRead(), 1u);
  EXPECT_GE(cold.cost_ms, 0.0);

  for (int i = 0; i < 100; ++i) disk.Read(r, 12 * i, 12);  // block 0 again
  const DiskStats warm = disk.stats();
  EXPECT_EQ(warm.cost_ms, cold.cost_ms);
  EXPECT_EQ(warm.cache_hits, cold.cache_hits + 100);
  EXPECT_EQ(warm.BlocksRead(), cold.BlocksRead());
  EXPECT_EQ(warm.page_requests, cold.page_requests + 100);

  disk.Read(r, 4096, 12);  // fetches block 1
  EXPECT_GE(disk.stats().cost_ms, warm.cost_ms);
  EXPECT_EQ(disk.stats().BlocksRead(), warm.BlocksRead() + 1);
  EXPECT_EQ(disk.stats().cache_hits, warm.cache_hits);
  std::remove(path.c_str());
}

TEST(MappedDiskTest, UnbackedRangesAccountArithmetically) {
  // Ranges registered at kNoOffset (structures with no bytes in any file)
  // are charged over a synthetic address space and never dereferenced --
  // this must work even with no file at all.
  MappedDisk disk(nullptr);
  const uint32_t a = disk.RegisterRange(DiskBackend::kNoOffset, 8192);
  const uint32_t b = disk.RegisterRange(DiskBackend::kNoOffset, 4096);
  disk.Read(a, 0, 8192);
  EXPECT_EQ(disk.stats().BlocksRead(), 2u);
  disk.Read(b, 0, 1);
  // Distinct ranges are padded apart, so crossing ranges is never
  // mistaken for a sequential continuation.
  EXPECT_EQ(disk.stats().Seeks(), 2u);
}

TEST(MappedDiskTest, SparseTouchesCountTouchedBlocksOnly) {
  const std::string path = WriteSample("sparse.pmidx");
  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok());
  MappedDisk disk(&file.value());
  const uint32_t r = disk.RegisterRange(
      file.value().section_offset(IndexSection::kWordScoreLists), 10000);
  disk.Read(r, 0, 12);      // block 0
  disk.Read(r, 8200, 12);   // block 2 (skips block 1)
  EXPECT_EQ(disk.stats().BlocksRead(), 2u);
  EXPECT_EQ(disk.stats().Seeks(), 2u);  // non-adjacent: both are seeks
  EXPECT_EQ(disk.stats().bytes_read, 24u);
  std::remove(path.c_str());
}

TEST(IndexFileWriterTest, CrashBeforeRenameLeavesPreviousVersionIntact) {
  // Durability regression: a failure injected at the power-cut site
  // (data synced into the .tmp, rename not yet executed) must surface as
  // a typed error, remove the orphan .tmp, and leave whatever lived
  // under the final name before the write byte-for-byte untouched.
  failpoint::DisarmAll();
  const std::string path = WriteSample("durable.pmidx");
  const std::vector<uint8_t> before = ReadAll(path);

  IndexFileWriter writer;
  writer.AddSection(IndexSection::kVocabulary, Payload(200, 5));
  failpoint::Arm("index_file.write.before_rename",
                 {.error_code = StatusCode::kIOError,
                  .error_message = "injected power cut",
                  .max_hits = 1});
  const Status crashed = writer.WriteTo(path);
  failpoint::DisarmAll();
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.code(), StatusCode::kIOError);
  // No half-state: the orphan is cleaned up, the old version survives.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(ReadAll(path), before);
  auto old_version = IndexFile::Open(path);
  ASSERT_TRUE(old_version.ok());
  EXPECT_TRUE(old_version.value().has_section(IndexSection::kWordScoreLists));

  // Faults off, the same writer replaces the file atomically.
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto new_version = IndexFile::Open(path);
  ASSERT_TRUE(new_version.ok());
  EXPECT_FALSE(new_version.value().has_section(IndexSection::kWordScoreLists));
  EXPECT_EQ(new_version.value().section(IndexSection::kVocabulary).size(),
            200u);
  std::remove(path.c_str());
}

TEST(IndexFileTest, OpenFailpointInjectsTypedCorruption) {
  failpoint::DisarmAll();
  const std::string path = WriteSample("openfault.pmidx");
  failpoint::Arm("index_file.open", {.error_code = StatusCode::kCorruption,
                                     .error_message = "injected torn page",
                                     .max_hits = 1});
  auto file = IndexFile::Open(path);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  failpoint::DisarmAll();
  // The injection auto-disarmed after one hit; the file itself is fine.
  EXPECT_TRUE(IndexFile::Open(path).ok());
  std::remove(path.c_str());
}

TEST(IndexFileWriterTest, EmptyWriterProducesOpenableFile) {
  IndexFileWriter writer;
  const std::string path = TempPath("empty.pmidx");
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file.value().has_section(IndexSection::kVocabulary));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace phrasemine
