// Dataset persistence.
//
// The paper's datasets (surveys and A_12w-style campaigns) are published
// through USC/LANDER [37]; this module gives the reproduction the same
// property: a measured campaign can be written to a compact binary file
// and re-analyzed later without re-probing.
//
// Datasets are written in one format: SLPW v3, the columnar container
// of core/dataset_columnar.h (WriteDatasetColumnar). This header holds
// the format-neutral Dataset struct, the readers, and re-analysis.
//
// The readers also accept SLPW v2, the framed row format the CLI wrote
// by default before v3 became the only writer (little-endian):
//   magic "SLPW"
//   | u32 version | i64 round_seconds | i64 epoch_sec | u64 block_count
//   | u32 header_crc32c                  (over the 28 bytes after magic)
//   then per block one framed record:
//   u32 payload_len | u32 payload_crc32c | payload
//   where payload is
//   u32 prefix_index | u16 ever_active | u8 probed | i64 first_round
//   | u32 n_samples | n_samples * f32 (the cleaned A-hat_s series)
//
// The per-record CRC32C turns silent bit rot into a detected, *localized*
// failure: the strict loader refuses the file, the tolerant loader skips
// the damaged record(s) and reports how many were lost (slck_fsck's
// per-record salvage). SLPW v1 (no framing, no checksums) is refused.
#ifndef SLEEPWALK_CORE_DATASET_H_
#define SLEEPWALK_CORE_DATASET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/ts/series.h"

namespace sleepwalk::core {

/// SLPW v2, the framed row format: read, never written.
inline constexpr std::uint32_t kDatasetVersion = 2;

/// One block's stored measurement.
struct StoredSeries {
  net::Prefix24 block;
  int ever_active = 0;
  bool probed = false;
  ts::EvenSeries series;  ///< cleaned, midnight-trimmed A-hat_s
};

/// A loaded dataset.
struct Dataset {
  std::int64_t round_seconds = 660;
  std::int64_t epoch_sec = 0;
  std::vector<StoredSeries> blocks;
};

/// What a dataset decode saw (mirrors CheckpointLoadReport; printed by
/// slck_fsck and asserted by the robustness tests).
struct DatasetLoadReport {
  bool found = false;          ///< file existed and was readable
  bool bad_magic = false;
  std::uint32_t version = 0;   ///< header version, when readable
  bool version_refused = false;
  int corrupt_records = 0;     ///< CRC failures / truncations seen
  std::uint64_t records_expected = 0;  ///< header block_count
  std::string detail;          ///< first failure, human-readable
};

/// Decodes SLPW v2 or v3 bytes (v3 materialized per block). Strict: any
/// corrupt or truncated record fails the whole load (details in
/// `report`).
std::optional<Dataset> DecodeDataset(std::span<const std::uint8_t> bytes,
                                     DatasetLoadReport* report = nullptr);

/// Salvaging decode (only v2 benefits; v3's per-column CRCs leave
/// nothing to salvage record by record): CRC-damaged records are skipped
/// and counted, intact ones are returned. nullopt only when the header
/// itself is unusable.
std::optional<Dataset> DecodeDatasetTolerant(
    std::span<const std::uint8_t> bytes, DatasetLoadReport* report = nullptr);

/// Strict read through `env`; nullopt on any I/O or decode failure.
std::optional<Dataset> ReadDataset(storage::Env& env, const std::string& path,
                                   DatasetLoadReport* report = nullptr);

/// Convenience wrapper over the process-wide real filesystem.
std::optional<Dataset> ReadDataset(const std::string& path);

/// Re-analyzes a stored series: stationarity + diurnal classification,
/// as Finish() would have produced (probing statistics are not stored).
BlockAnalysis Reanalyze(const StoredSeries& stored,
                        const AnalyzerConfig& config = {});

/// Hot-loop variant for bulk reanalysis: all intermediates live in
/// `scratch` and the result is written into `out` (capacity reused), so
/// warm calls perform zero heap allocations. Output is identical to the
/// allocating Reanalyze().
void Reanalyze(const StoredSeries& stored, const AnalyzerConfig& config,
               AnalysisScratch& scratch, BlockAnalysis& out);

/// Re-analyzes caller-owned samples of an already-trimmed series: they
/// are copied into out.short_series and AnalyzeSeries
/// (core/block_analyzer.h) runs from its tail, so a stored block goes
/// through the very stage chain the live Finish() ran.
void ReanalyzeSeries(net::Prefix24 block, int ever_active, bool probed,
                     std::int64_t first_round, std::span<const double> values,
                     const AnalyzerConfig& config, AnalysisScratch& scratch,
                     BlockAnalysis& out);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_DATASET_H_
