// SLPW v3: the dataset format, and the only one written.
//
// The framed SLPW v2 row format (still readable, core/dataset.h) costs
// a full decode pass and one heap vector per block before the first
// series of a million-block dataset is usable. v3 reuses the SLCK/SLPW
// v3 container engine (storage/columnar.h): per-block attributes are
// fixed-width columns, every cleaned A-hat_s series is concatenated
// into ONE f32 values column addressed by per-block offset/count
// columns, and the whole file is CRC'd per column, so a reader can map
// the file (storage::Env::Map) and validate or walk it in place.
//
// Layout (SLPW magic, version 3, kind kDatasetColumnarKind):
//   META        u64[4]  round_seconds | epoch_sec | blocks | samples
//   PREFIX      u32[n]  /24 index
//   EVER_ACTIVE i32[n]  |E(b)|
//   PROBED      u8[n]   0 = skipped by the sparse-block policy
//   FIRST_ROUND i64[n]  series start round (midnight-trimmed)
//   COUNT       u32[n]  samples in block i's series
//   OFFSET      u64[n]  start index into VALUES (must be the exact
//                       prefix sum of COUNT — validated, so hostile
//                       overlap/misalignment fails closed)
//   VALUES      f32[samples]  all series, concatenated
//
// Values are f32 like v2 records, so re-analysis of the same campaign
// through either format is bitwise identical (dataset_columnar_test).
// DecodeDataset/ReadDataset sniff the version and materialize a v3 file
// into the same Dataset struct a v2 file decodes to.
#ifndef SLEEPWALK_CORE_DATASET_COLUMNAR_H_
#define SLEEPWALK_CORE_DATASET_COLUMNAR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/dataset.h"
#include "sleepwalk/storage/columnar.h"

namespace sleepwalk::core {

/// SLPW-magic container kind for columnar datasets (the SLCK kinds in
/// block_store.h live under a different magic; the discriminator still
/// keeps any cross-wired file from parsing).
inline constexpr std::uint32_t kDatasetColumnarKind = 1;

/// Zero-copy view over a parsed v3 dataset. Spans point into the
/// caller's buffer or mapping, which must outlive the view.
struct ColumnarDatasetView {
  std::int64_t round_seconds = 660;
  std::int64_t epoch_sec = 0;
  std::span<const std::uint32_t> prefix;
  std::span<const std::int32_t> ever_active;
  std::span<const std::uint8_t> probed;
  std::span<const std::int64_t> first_round;
  std::span<const std::uint32_t> count;
  std::span<const std::uint64_t> offset;
  std::span<const float> values;

  std::size_t size() const noexcept { return prefix.size(); }

  /// Block i's cleaned series, straight out of the file.
  std::span<const float> SeriesOf(std::size_t i) const noexcept {
    return values.subspan(static_cast<std::size_t>(offset[i]), count[i]);
  }
};

/// Serializes analyses as an SLPW v3 image (column payloads borrowed,
/// one f32 conversion pass).
std::vector<std::uint8_t> EncodeDatasetColumnar(
    std::span<const BlockAnalysis> analyses, std::int64_t round_seconds = 660,
    std::int64_t epoch_sec = 0);

/// Full-strictness parse + cross-column validation (offsets must be the
/// exact prefix sum of counts and exhaust VALUES). On failure the view
/// is unusable and the Error names the violated invariant.
storage::Error ParseDatasetColumnar(std::span<const std::uint8_t> file,
                                    ColumnarDatasetView& view,
                                    const std::string& path = "<memory>");

/// Atomically writes the EncodeDatasetColumnar bytes through `env`,
/// streamed from the columns with no image in between.
storage::Error WriteDatasetColumnar(storage::Env& env, const std::string& path,
                                    std::span<const BlockAnalysis> analyses,
                                    std::int64_t round_seconds = 660,
                                    std::int64_t epoch_sec = 0);

/// Materializes a v3 view into the Dataset struct, the form every
/// reader re-analyzes (ReanalyzeDataset, core/pipeline.h).
Dataset MaterializeDataset(const ColumnarDatasetView& view);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_DATASET_COLUMNAR_H_
