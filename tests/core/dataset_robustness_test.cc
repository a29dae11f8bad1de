// SLPW v2 robustness. Nothing writes v2 any more, but datasets made
// before v3 became the only writer are v2, so the reader stays: every
// single-byte corruption and truncation must fail the strict loader;
// the tolerant loader must salvage the intact records and count the
// damaged ones; v1 files and foreign versions must be refused. The v2
// input is a fixture frozen from the last v2 writer (fixtures/
// make_v2_fixtures.cc) over TestAnalyses() below.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fixture.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/storage/bytes.h"

namespace sleepwalk::core {
namespace {

// Layout constants of the v2 container (see dataset.h):
// magic(4) + header(28) + header_crc(4), then per record len(4) + crc(4)
// + payload.
constexpr std::size_t kFirstRecord = 4 + 28 + 4;

BlockAnalysis MakeAnalysis(std::uint32_t index, int samples) {
  BlockAnalysis analysis;
  analysis.block = net::Prefix24::FromIndex(index);
  analysis.ever_active = 100 + static_cast<int>(index % 100);
  analysis.probed = true;
  analysis.short_series.first_round = 3;
  analysis.short_series.values.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    analysis.short_series.values[static_cast<std::size_t>(i)] =
        0.25 + 0.5 * static_cast<double>((i * 37 + index) % 100) / 100.0;
  }
  return analysis;
}

/// The fixture's content: what make_v2_fixtures.cc encoded (with
/// round_seconds 660 and epoch_sec 42).
std::vector<BlockAnalysis> TestAnalyses() {
  std::vector<BlockAnalysis> analyses;
  for (std::uint32_t i = 0; i < 5; ++i) {
    analyses.push_back(MakeAnalysis(1000 + 7 * i, 24 + static_cast<int>(i)));
  }
  analyses[3].probed = false;
  return analyses;
}

std::vector<std::uint8_t> V2Bytes() {
  return testing_fixture::ReadFixture("dataset_v2_robustness.slpw");
}

TEST(DatasetRobustness, StrictDecodeReportsCleanV2) {
  const auto analyses = TestAnalyses();
  DatasetLoadReport report;
  const auto dataset = DecodeDataset(V2Bytes(), &report);
  ASSERT_TRUE(dataset.has_value()) << report.detail;
  EXPECT_EQ(report.version, kDatasetVersion);
  EXPECT_EQ(report.corrupt_records, 0);
  EXPECT_EQ(report.records_expected, 5u);
  EXPECT_EQ(dataset->round_seconds, 660);
  EXPECT_EQ(dataset->epoch_sec, 42);
  ASSERT_EQ(dataset->blocks.size(), analyses.size());
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const auto& stored = dataset->blocks[i];
    const auto& want = analyses[i];
    EXPECT_EQ(stored.block.Index(), want.block.Index()) << "block " << i;
    EXPECT_EQ(stored.ever_active, want.ever_active) << "block " << i;
    EXPECT_EQ(stored.probed, want.probed) << "block " << i;
    EXPECT_EQ(stored.series.first_round, want.short_series.first_round);
    ASSERT_EQ(stored.series.size(), want.short_series.size());
    for (std::size_t k = 0; k < stored.series.size(); ++k) {
      // v2 stores f32: the sample must be the f32 narrowing, exactly.
      EXPECT_EQ(stored.series.values[k],
                static_cast<double>(
                    static_cast<float>(want.short_series.values[k])))
          << "block " << i << " sample " << k;
    }
  }
}

TEST(DatasetRobustness, EverySingleByteCorruptionFailsStrictDecode) {
  const auto bytes = V2Bytes();
  auto corrupted = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupted[i] = bytes[i] ^ 0xA5;
    DatasetLoadReport report;
    EXPECT_FALSE(DecodeDataset(corrupted, &report).has_value())
        << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(report.bad_magic || report.version_refused ||
                report.corrupt_records > 0)
        << "flip at byte " << i << " reported nothing";
    corrupted[i] = bytes[i];
  }
}

TEST(DatasetRobustness, EveryTruncationFailsStrictDecode) {
  const auto bytes = V2Bytes();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> prefix{bytes.data(), length};
    EXPECT_FALSE(DecodeDataset(prefix).has_value())
        << "truncation to " << length << " bytes went undetected";
  }
}

TEST(DatasetRobustness, TolerantDecodeSalvagesAroundOneBadRecord) {
  const auto analyses = TestAnalyses();
  auto bytes = V2Bytes();
  // Flip a payload byte of record 0 (offset +8 skips its len and crc,
  // +2 lands inside the block index field).
  bytes[kFirstRecord + 8 + 2] ^= 0xFF;

  EXPECT_FALSE(DecodeDataset(bytes).has_value());

  DatasetLoadReport report;
  const auto salvaged = DecodeDatasetTolerant(bytes, &report);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_EQ(report.corrupt_records, 1);
  EXPECT_EQ(report.records_expected, 5u);
  ASSERT_EQ(salvaged->blocks.size(), 4u);
  // The survivors are the records after the damaged one, in order.
  for (std::size_t i = 0; i < salvaged->blocks.size(); ++i) {
    EXPECT_EQ(salvaged->blocks[i].block.Index(),
              analyses[i + 1].block.Index());
    EXPECT_EQ(salvaged->blocks[i].series.size(),
              analyses[i + 1].short_series.size());
  }
}

TEST(DatasetRobustness, TolerantDecodeStopsAtABrokenFrameChain) {
  const auto analyses = TestAnalyses();
  const auto bytes = V2Bytes();
  // Cut into the last record's payload: its frame is no longer whole,
  // and nothing after it is locatable.
  const std::span<const std::uint8_t> truncated{bytes.data(),
                                                bytes.size() - 5};
  DatasetLoadReport report;
  const auto salvaged = DecodeDatasetTolerant(truncated, &report);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_EQ(report.corrupt_records, 1);
  EXPECT_EQ(salvaged->blocks.size(), analyses.size() - 1);
}

TEST(DatasetRobustness, TolerantDecodeStillRefusesABrokenHeader) {
  auto bytes = V2Bytes();
  bytes[9] ^= 0x10;  // inside round_seconds, under the header CRC
  DatasetLoadReport report;
  EXPECT_FALSE(DecodeDatasetTolerant(bytes, &report).has_value());
  EXPECT_GE(report.corrupt_records, 1);
}

TEST(DatasetRobustness, ForeignVersionIsRefusedNotMisread) {
  auto bytes = V2Bytes();
  bytes[4] = 9;  // version u32 LSB: 2 -> 9 (no such format)
  DatasetLoadReport report;
  EXPECT_FALSE(DecodeDataset(bytes, &report).has_value());
  EXPECT_TRUE(report.version_refused);
  EXPECT_FALSE(DecodeDatasetTolerant(bytes).has_value());
}

TEST(DatasetRobustness, V2BodyMasqueradingAsV3IsRefused) {
  // Version says columnar, the body is framed v2: the columnar parser
  // must fail closed (header CRC covers the version field), never
  // misread frames as a column directory.
  auto bytes = V2Bytes();
  bytes[4] = 3;
  DatasetLoadReport report;
  EXPECT_FALSE(DecodeDataset(bytes, &report).has_value());
  EXPECT_GE(report.corrupt_records, 1);
}

TEST(DatasetRobustness, V1FilesAreRefused) {
  // A well-formed SLPW v1 file (unframed records, no checksums). Its
  // reader is retired: the version check must refuse it up front, in
  // both loaders, rather than hand its bytes to the v2 record walk.
  storage::ByteWriter out;
  const char magic[4] = {'S', 'L', 'P', 'W'};
  out.PutBytes(std::span{reinterpret_cast<const std::uint8_t*>(magic), 4});
  out.Put(std::uint32_t{1});      // version
  out.Put(std::int64_t{660});     // round_seconds
  out.Put(std::int64_t{99});      // epoch_sec
  out.Put(std::uint64_t{1});      // block_count
  out.Put(std::uint32_t{4242});   // record: block index
  out.Put(std::uint16_t{77});     //   ever_active
  out.Put(std::uint8_t{1});       //   probed
  out.Put(std::int64_t{2});       //   first_round
  out.Put(std::uint32_t{3});      //   n_samples
  out.Put(0.25F);
  out.Put(0.5F);
  out.Put(0.75F);
  const auto bytes = out.Take();

  DatasetLoadReport report;
  EXPECT_FALSE(DecodeDataset(bytes, &report).has_value());
  EXPECT_FALSE(report.bad_magic);
  EXPECT_EQ(report.version, 1u);
  EXPECT_TRUE(report.version_refused);
  EXPECT_EQ(report.corrupt_records, 0);
  EXPECT_EQ(report.records_expected, 0u) << "v1 header fields were parsed";
  DatasetLoadReport tolerant;
  EXPECT_FALSE(DecodeDatasetTolerant(bytes, &tolerant).has_value());
  EXPECT_TRUE(tolerant.version_refused);
}

}  // namespace
}  // namespace sleepwalk::core
