// Hostile-input and round-trip coverage for the SLCK/SLPW v3 columnar
// container (storage/columnar.h): the mmap-facing reader must fail
// closed on truncations, misaligned offsets, CRC damage, version
// confusion, and padding tampering — and hand out aligned zero-copy
// typed spans when the file is intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk {
namespace {

using storage::ColumnarReader;
using storage::ColumnarWriter;
using storage::kColumnarAlignBytes;
using storage::kColumnarPageBytes;
using storage::kColumnarStageBytes;

constexpr std::uint32_t kKind = 7;
constexpr std::uint64_t kFingerprint = 0xfeedface12345678ULL;
constexpr std::uint64_t kGeneration = 42;

std::vector<std::uint8_t> SampleImage() {
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  std::vector<std::uint64_t> ids{10, 20, 30, 40, 50};
  std::vector<double> values{0.5, 0.25, 0.125, 1.0, 0.0};
  std::vector<std::uint8_t> blob{1, 2, 3};
  writer.AddTypedBorrowed<std::uint64_t>(1, ids);
  writer.AddTypedBorrowed<double>(2, values);
  writer.AddBorrowed(3, 1, blob);
  return writer.Finish();
}

storage::Error Parse(ColumnarReader& reader,
                     const std::vector<std::uint8_t>& image) {
  return reader.Parse(image, "SLCK", "test.slck");
}

TEST(Columnar, RoundTripExposesHeaderAndTypedSpans) {
  const auto image = SampleImage();
  ASSERT_GT(image.size(), kColumnarPageBytes)
      << "payloads must live past the page-aligned data region start";

  ColumnarReader reader;
  ASSERT_TRUE(Parse(reader, image).ok());
  EXPECT_EQ(reader.kind(), kKind);
  EXPECT_EQ(reader.fingerprint(), kFingerprint);
  EXPECT_EQ(reader.generation(), kGeneration);
  ASSERT_EQ(reader.columns().size(), 3u);

  std::span<const std::uint64_t> ids;
  ASSERT_TRUE(reader.FetchTyped<std::uint64_t>(1, 5, ids));
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[4], 50u);

  std::span<const double> values;
  ASSERT_TRUE(reader.FetchTyped<double>(2, 5, values));
  EXPECT_EQ(values[3], 1.0);

  // Zero-copy: the spans point into the caller's buffer, at an in-file
  // offset on the container's cache-line grid (the absolute address
  // alignment is the *mapping's* job — Env::Map returns page-aligned
  // regions; a heap vector only promises malloc alignment).
  const auto* base = image.data();
  const auto* ids_bytes = reinterpret_cast<const std::uint8_t*>(ids.data());
  EXPECT_GE(ids_bytes, base + kColumnarPageBytes);
  EXPECT_LT(ids_bytes, base + image.size());
  EXPECT_EQ(static_cast<std::size_t>(ids_bytes - base) % kColumnarAlignBytes,
            0u);

  // Fetch demands the exact row count and element width.
  EXPECT_FALSE(reader.FetchTyped<std::uint64_t>(1, 4, ids));
  std::span<const std::uint32_t> narrow;
  EXPECT_FALSE(reader.FetchTyped<std::uint32_t>(1, 5, narrow));
  EXPECT_EQ(reader.Find(99), nullptr);
}

TEST(Columnar, DeterministicEncode) {
  EXPECT_EQ(SampleImage(), SampleImage());
}

TEST(Columnar, EveryTruncationIsDetected) {
  const auto image = SampleImage();
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    std::vector<std::uint8_t> cut{image.begin(),
                                  image.begin() + static_cast<long>(keep)};
    ColumnarReader reader;
    EXPECT_FALSE(Parse(reader, cut).ok()) << "kept " << keep << " bytes";
  }
}

TEST(Columnar, EverySingleByteCorruptionIsDetected) {
  const auto image = SampleImage();
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto bent = image;
    bent[i] ^= 0x01;
    ColumnarReader reader;
    EXPECT_FALSE(Parse(reader, bent).ok()) << "flipped byte " << i;
  }
}

TEST(Columnar, FlippedPaddingByteIsNamed) {
  // The CRCs only frame header, directory, and payloads; the padding in
  // between is guarded by the explicit zero-scan. Flip a byte in the
  // inter-region padding (just before the data page boundary) and
  // check the refusal names it.
  auto image = SampleImage();
  const std::size_t pad = kColumnarPageBytes - 1;
  ASSERT_EQ(image[pad], 0u);
  image[pad] = 0xa5;
  ColumnarReader reader;
  const auto error = Parse(reader, image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("nonzero padding"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, TrailingBytesAreRefused) {
  auto image = SampleImage();
  image.push_back(0x00);
  ColumnarReader reader;
  const auto error = Parse(reader, image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("trailing"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, V2HeaderIsRefusedWithRemediation) {
  // A v2 checkpoint must not be parsed as v3 garbage: craft the minimal
  // v2-looking prefix (magic + version 2) and expect a version refusal
  // that names v2, not a CRC or truncation complaint.
  std::vector<std::uint8_t> v2(64, 0);
  std::memcpy(v2.data(), "SLCK", 4);
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + 4, &version, sizeof(version));
  ColumnarReader reader;
  const auto error = reader.Parse(v2, "SLCK", "old.slck");
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("v2"), std::string::npos) << error.ToString();
}

TEST(Columnar, BadMagicIsRefused) {
  auto image = SampleImage();
  image[0] = 'X';
  ColumnarReader reader;
  const auto error = Parse(reader, image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("magic"), std::string::npos);
}

// Forgery helper: rewrite a directory field and recompute both the
// directory CRC and (if asked) a column CRC, so the tamper survives the
// checksum gauntlet and the *structural* validation has to catch it.
struct Forger {
  std::vector<std::uint8_t> image;
  static constexpr std::size_t kHeaderBytes = 36;
  static constexpr std::size_t kEntryBytes = 36;

  std::uint32_t n_columns() const {
    std::uint32_t n = 0;
    std::memcpy(&n, image.data() + 28, sizeof(n));
    return n;
  }
  std::size_t EntryOffset(std::size_t index) const {
    return kHeaderBytes + index * kEntryBytes;
  }
  template <typename T>
  void SetEntryField(std::size_t index, std::size_t field_offset, T value) {
    std::memcpy(image.data() + EntryOffset(index) + field_offset, &value,
                sizeof(value));
  }
  void ResealDirectory() {
    const std::size_t dir_bytes = n_columns() * kEntryBytes;
    const std::uint32_t crc = net::Crc32cOf(
        {image.data() + kHeaderBytes, dir_bytes});
    std::memcpy(image.data() + kHeaderBytes + dir_bytes, &crc, sizeof(crc));
  }
};

TEST(Columnar, MisalignedColumnOffsetIsRefusedEvenWithValidCrcs) {
  Forger forger{SampleImage()};
  // Entry layout: u32 id | u32 elem_width | u64 rows | u64 offset
  // | u64 byte_len | u32 crc. Nudge column 0's offset off the 64-byte
  // grid and reseal the directory CRC; the payload CRC check would now
  // read shifted bytes, so also give the entry the CRC of those bytes.
  std::uint64_t offset = 0;
  std::memcpy(&offset, forger.image.data() + forger.EntryOffset(0) + 16,
              sizeof(offset));
  std::uint64_t byte_len = 0;
  std::memcpy(&byte_len, forger.image.data() + forger.EntryOffset(0) + 24,
              sizeof(byte_len));
  const std::uint64_t bent_offset = offset + 8;  // still 8-aligned, not 64
  forger.SetEntryField(0, 16, bent_offset);
  forger.SetEntryField(
      0, 32,
      net::Crc32cOf({forger.image.data() + bent_offset,
                     static_cast<std::size_t>(byte_len)}));
  forger.ResealDirectory();

  ColumnarReader reader;
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("misaligned"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, RowWidthLengthMismatchIsRefusedEvenWithValidCrcs) {
  Forger forger{SampleImage()};
  forger.SetEntryField<std::uint64_t>(0, 8, 4);  // rows: 5 -> 4
  forger.ResealDirectory();
  ColumnarReader reader;
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.detail.find("rows * width"), std::string::npos)
      << error.ToString();
}

TEST(Columnar, OverlappingPayloadsAreRefusedEvenWithValidCrcs) {
  Forger forger{SampleImage()};
  // Point column 1 (the doubles) at column 0's extent. Same byte_len
  // (both 40 bytes), so rows*width still checks out; reseal both CRCs.
  std::uint64_t offset0 = 0;
  std::memcpy(&offset0, forger.image.data() + forger.EntryOffset(0) + 16,
              sizeof(offset0));
  std::uint64_t byte_len = 0;
  std::memcpy(&byte_len, forger.image.data() + forger.EntryOffset(1) + 24,
              sizeof(byte_len));
  forger.SetEntryField(1, 16, offset0);
  forger.SetEntryField(
      1, 32,
      net::Crc32cOf({forger.image.data() + offset0,
                     static_cast<std::size_t>(byte_len)}));
  forger.ResealDirectory();

  ColumnarReader reader;
  const auto error = Parse(reader, forger.image);
  ASSERT_FALSE(error.ok());
  // The duplicate extent leaves either an overlap or orphaned nonzero
  // bytes where column 1 used to live; both are structural refusals.
  EXPECT_TRUE(error.detail.find("overlap") != std::string::npos ||
              error.detail.find("nonzero padding") != std::string::npos)
      << error.ToString();
}

TEST(Columnar, PeekContainerVersionSniffsWithoutValidation) {
  const auto image = SampleImage();
  EXPECT_EQ(storage::PeekContainerVersion(image, "SLCK"),
            storage::kColumnarVersion);
  EXPECT_EQ(storage::PeekContainerVersion(image, "SLPW"), std::nullopt);
  const std::vector<std::uint8_t> tiny{'S', 'L', 'C', 'K'};
  EXPECT_EQ(storage::PeekContainerVersion(tiny, "SLCK"), std::nullopt);
}

TEST(Columnar, EmptyContainerRoundTrips) {
  ColumnarWriter writer{"SLPW", 1, 1, 1};
  const auto image = writer.Finish();
  ColumnarReader reader;
  ASSERT_TRUE(reader.Parse(image, "SLPW").ok());
  EXPECT_TRUE(reader.columns().empty());
}


// ---------------------------------------------------------------------------
// WriteTo: the streamed form must append exactly Finish()'s bytes.

/// Forwards to a MemEnv file and records every Append's size.
class RecordingFile final : public storage::WritableFile {
 public:
  explicit RecordingFile(std::unique_ptr<storage::WritableFile> inner)
      : inner_(std::move(inner)) {}
  storage::Error Append(std::span<const std::uint8_t> data) override {
    appends.push_back(data.size());
    return inner_->Append(data);
  }
  storage::Error Sync() override { return inner_->Sync(); }
  storage::Error Close() override { return inner_->Close(); }

  std::vector<std::size_t> appends;

 private:
  std::unique_ptr<storage::WritableFile> inner_;
};

/// Streams `writer` into a MemEnv file; returns the file's bytes and the
/// Append sizes.
std::vector<std::uint8_t> Streamed(const ColumnarWriter& writer,
                                   std::vector<std::size_t>& appends) {
  storage::MemEnv env;
  storage::Error error;
  auto base = env.Create("/d/f", error);
  EXPECT_TRUE(error.ok()) << error.ToString();
  RecordingFile file{std::move(base)};
  error = writer.WriteTo(file);
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_TRUE(file.Close().ok());
  appends = file.appends;
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(env.ReadAll("/d/f", bytes).ok());
  return bytes;
}

void ExpectStreamMatchesFinish(const ColumnarWriter& writer) {
  const auto image = writer.Finish();
  std::vector<std::size_t> appends;
  const auto streamed = Streamed(writer, appends);
  EXPECT_EQ(streamed, image);
  ColumnarReader reader;
  EXPECT_TRUE(reader.Parse(streamed, "SLCK").ok());
  // A file no larger than the stage takes exactly one Append; a larger
  // one never appends an empty piece.
  if (image.size() <= kColumnarStageBytes) {
    EXPECT_EQ(appends.size(), 1u);
  }
  for (const std::size_t size : appends) EXPECT_GT(size, 0u);
}

std::span<const std::uint8_t> Piece(const std::vector<std::uint8_t>& bytes,
                                    std::size_t begin, std::size_t size) {
  return std::span<const std::uint8_t>{bytes}.subspan(begin, size);
}

TEST(ColumnarWriteTo, ZeroColumnsIsTheHeaderPage) {
  const ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  ExpectStreamMatchesFinish(writer);
  EXPECT_EQ(writer.Finish().size(), kColumnarPageBytes);
}

TEST(ColumnarWriteTo, EmptyColumnAndSmallColumns) {
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  const std::vector<double> values{0.5, 0.25, 0.125};
  writer.AddTypedBorrowed<double>(1, values);
  const std::vector<std::uint8_t> blob{7, 8, 9};
  writer.AddBorrowed(2, 1, {});
  writer.AddBorrowed(3, 1, blob);
  ExpectStreamMatchesFinish(writer);
}

TEST(ColumnarWriteTo, GatheredColumnWithEmptyPiecesEqualsOneColumn) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0};
  const std::vector<double> empty;
  ColumnarWriter gathered{"SLCK", kKind, kFingerprint, kGeneration};
  gathered.AddGathered(
      5, sizeof(double),
      {ColumnarWriter::BytesOf(std::span<const double>{empty}),
       ColumnarWriter::BytesOf(std::span<const double>{a}),
       ColumnarWriter::BytesOf(std::span<const double>{empty}),
       ColumnarWriter::BytesOf(std::span<const double>{b})});
  gathered.AddGathered(6, sizeof(double), {});
  ExpectStreamMatchesFinish(gathered);

  const std::vector<double> joined{1.0, 2.0, 3.0};
  ColumnarWriter single{"SLCK", kKind, kFingerprint, kGeneration};
  single.AddTypedBorrowed<double>(5, joined);
  single.AddTypedBorrowed<double>(6, std::span<const double>{});
  EXPECT_EQ(gathered.Finish(), single.Finish());

  ColumnarReader reader;
  const auto image = gathered.Finish();
  ASSERT_TRUE(Parse(reader, image).ok());
  std::span<const double> column;
  ASSERT_TRUE(reader.FetchTyped<double>(5, 3, column));
  EXPECT_EQ(column[2], 3.0);
}

TEST(ColumnarWriteTo, PiecesStraddlingTheStageBoundary) {
  std::vector<std::uint8_t> bytes(3 * kColumnarStageBytes + 4096);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  // Column 2's payload starts 5120 bytes into the file (the header page,
  // column 1's 1000 bytes, the gap up to the next cache line). Its pieces
  // then stop one byte short of the stage boundary, straddle it, land
  // exactly on it, are exactly the stage size, are empty, are larger
  // than the stage, and leave an odd-sized tail for column 3's zero gap
  // to follow.
  constexpr std::size_t kColumn2Start = 5120;
  writer.AddBorrowed(1, 1, Piece(bytes, 0, 1000));
  writer.AddGathered(
      2, 1,
      {Piece(bytes, 0, kColumnarStageBytes - kColumn2Start - 1),
       Piece(bytes, 11, 2), Piece(bytes, 17, kColumnarStageBytes - 1),
       Piece(bytes, 100, kColumnarStageBytes), Piece(bytes, 0, 0),
       Piece(bytes, 3, kColumnarStageBytes + 3), Piece(bytes, 9, 13)});
  writer.AddBorrowed(3, 1, Piece(bytes, 5, kColumnarStageBytes - 1));
  writer.AddBorrowed(4, 1, Piece(bytes, 1, 77));
  ExpectStreamMatchesFinish(writer);
  const auto image = writer.Finish();
  ColumnarReader reader;
  ASSERT_TRUE(Parse(reader, image).ok());
  EXPECT_EQ(reader.Find(2)->bytes.data() - image.data(),
            static_cast<std::ptrdiff_t>(kColumn2Start));
  std::vector<std::size_t> appends;
  Streamed(writer, appends);
  EXPECT_GT(appends.size(), 3u);
  for (const std::size_t size : appends) {
    EXPECT_LE(size, kColumnarStageBytes + 3);
  }
}

TEST(ColumnarWriteTo, FileOfExactlyTheStageSizeIsOneAppend) {
  const std::vector<std::uint8_t> payload(
      kColumnarStageBytes - kColumnarPageBytes, 0x5a);
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  writer.AddBorrowed(1, 1, payload);
  ASSERT_EQ(writer.Finish().size(), kColumnarStageBytes);
  ExpectStreamMatchesFinish(writer);

  // One byte more spills into a second Append.
  const std::vector<std::uint8_t> bigger(payload.size() + 1, 0x5a);
  ColumnarWriter over{"SLCK", kKind, kFingerprint, kGeneration};
  over.AddBorrowed(1, 1, bigger);
  ExpectStreamMatchesFinish(over);
  std::vector<std::size_t> appends;
  Streamed(over, appends);
  EXPECT_EQ(appends.size(), 2u);
}

TEST(ColumnarWriteTo, StopsAtTheFirstFailedAppend) {
  class FailingFile final : public storage::WritableFile {
   public:
    storage::Error Append(std::span<const std::uint8_t>) override {
      ++appends;
      storage::Error error;
      error.op = "append";
      error.path = "x";
      return error;
    }
    storage::Error Sync() override { return {}; }
    storage::Error Close() override { return {}; }
    int appends = 0;
  };
  const std::vector<std::uint8_t> payload(3 * kColumnarStageBytes, 1);
  ColumnarWriter writer{"SLCK", kKind, kFingerprint, kGeneration};
  writer.AddBorrowed(1, 1, payload);
  writer.AddBorrowed(2, 1, payload);
  FailingFile file;
  EXPECT_EQ(writer.WriteTo(file).op, "append");
  EXPECT_EQ(file.appends, 1);
}

}  // namespace
}  // namespace sleepwalk
