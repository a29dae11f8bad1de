#include "sleepwalk/core/dataset.h"

#include <cstring>
#include <utility>

#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/bytes.h"

namespace sleepwalk::core {

namespace {

using storage::ByteReader;

constexpr char kMagic[4] = {'S', 'L', 'P', 'W'};

// Bytes between the magic and the header CRC: u32 version
// + i64 round_seconds + i64 epoch_sec + u64 block_count.
constexpr std::size_t kHeaderBytes = 4 + 8 + 8 + 8;

// Reject implausible counts before reserving (corrupt headers).
constexpr std::uint64_t kMaxCount = 1ull << 32;

bool GetRecord(ByteReader& in, StoredSeries& stored) {
  std::uint32_t index = 0;
  std::uint16_t ever_active = 0;
  std::uint8_t probed = 0;
  std::uint32_t n_samples = 0;
  if (!in.Get(index) || !in.Get(ever_active) || !in.Get(probed) ||
      !in.Get(stored.series.first_round) || !in.Get(n_samples)) {
    return false;
  }
  stored.block = net::Prefix24::FromIndex(index);
  stored.ever_active = ever_active;
  stored.probed = probed != 0;
  stored.series.values.resize(n_samples);
  for (auto& value : stored.series.values) {
    float sample = 0.0F;
    if (!in.Get(sample)) return false;
    value = static_cast<double>(sample);
  }
  return true;
}

/// Shared v2 walk; `tolerant` decides whether a damaged record kills the
/// load or is skipped and counted.
std::optional<Dataset> DecodeV2(std::span<const std::uint8_t> bytes,
                                ByteReader& in, DatasetLoadReport& report,
                                bool tolerant) {
  Dataset dataset;
  std::uint64_t block_count = 0;
  std::uint32_t header_crc = 0;
  if (!in.Get(dataset.round_seconds) || !in.Get(dataset.epoch_sec) ||
      !in.Get(block_count) || !in.Get(header_crc)) {
    report.corrupt_records = 1;
    report.detail = "truncated header";
    return std::nullopt;
  }
  if (bytes.size() < 4 + kHeaderBytes ||
      net::Crc32cOf(bytes.subspan(4, kHeaderBytes)) != header_crc) {
    report.corrupt_records = 1;
    report.detail = "header CRC mismatch";
    return std::nullopt;
  }
  if (block_count > kMaxCount) {
    report.corrupt_records = 1;
    report.detail = "implausible block count";
    return std::nullopt;
  }
  report.records_expected = block_count;

  const auto note = [&report](std::string what) {
    ++report.corrupt_records;
    if (report.detail.empty()) report.detail = std::move(what);
  };

  dataset.blocks.reserve(block_count);
  for (std::uint64_t i = 0; i < block_count; ++i) {
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    if (!in.Get(length) || !in.Get(crc) || length > in.remaining()) {
      // The frame chain is broken; later records are not locatable. The
      // remnant belongs to this one broken frame, not to a second
      // "trailing bytes" defect.
      note("record " + std::to_string(i) + " frame truncated");
      if (tolerant) {
        in.Skip(in.remaining());
        break;
      }
      return std::nullopt;
    }
    const auto payload = in.Rest().first(length);
    in.Skip(length);
    if (net::Crc32cOf(payload) != crc) {
      note("record " + std::to_string(i) + " CRC mismatch");
      if (tolerant) continue;
      return std::nullopt;
    }
    ByteReader record{payload};
    StoredSeries stored;
    if (!GetRecord(record, stored) || record.remaining() != 0) {
      note("record " + std::to_string(i) + " malformed");
      if (tolerant) continue;
      return std::nullopt;
    }
    dataset.blocks.push_back(std::move(stored));
  }
  if (in.remaining() != 0) {
    note("trailing bytes after last record");
    if (!tolerant) return std::nullopt;
  }
  return dataset;
}

std::optional<Dataset> Decode(std::span<const std::uint8_t> bytes,
                              DatasetLoadReport& report, bool tolerant) {
  report.found = true;
  ByteReader in{bytes};
  char magic[4] = {};
  if (!in.GetBytes(reinterpret_cast<std::uint8_t*>(magic), sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    report.bad_magic = true;
    report.detail = "bad magic";
    return std::nullopt;
  }
  if (!in.Get(report.version)) {
    report.corrupt_records = 1;
    report.detail = "truncated before version";
    return std::nullopt;
  }
  if (report.version == storage::kColumnarVersion) {
    // SLPW v3 interop: parse the columnar container (all-or-nothing —
    // per-column CRCs leave nothing to salvage record-by-record, so
    // strict and tolerant coincide) and materialize per-block vectors.
    ColumnarDatasetView view;
    if (auto error = ParseDatasetColumnar(bytes, view); !error.ok()) {
      report.corrupt_records = 1;
      report.detail = error.detail;
      return std::nullopt;
    }
    report.records_expected = view.size();
    return MaterializeDataset(view);
  }
  if (report.version != kDatasetVersion) {
    report.version_refused = true;
    report.detail = "unsupported version";
    return std::nullopt;
  }
  return DecodeV2(bytes, in, report, tolerant);
}

}  // namespace

std::optional<Dataset> DecodeDataset(std::span<const std::uint8_t> bytes,
                                     DatasetLoadReport* report) {
  DatasetLoadReport scratch;
  return Decode(bytes, report != nullptr ? *report : scratch, false);
}

std::optional<Dataset> DecodeDatasetTolerant(
    std::span<const std::uint8_t> bytes, DatasetLoadReport* report) {
  DatasetLoadReport scratch;
  return Decode(bytes, report != nullptr ? *report : scratch, true);
}

std::optional<Dataset> ReadDataset(storage::Env& env, const std::string& path,
                                   DatasetLoadReport* report) {
  std::vector<std::uint8_t> bytes;
  if (auto error = env.ReadAll(path, bytes); !error.ok()) {
    if (report != nullptr) {
      report->found = false;
      report->detail = error.ToString();
    }
    return std::nullopt;
  }
  return DecodeDataset(bytes, report);
}

std::optional<Dataset> ReadDataset(const std::string& path) {
  return ReadDataset(storage::RealEnvInstance(), path, nullptr);
}

BlockAnalysis Reanalyze(const StoredSeries& stored,
                        const AnalyzerConfig& config) {
  AnalysisScratch scratch;
  BlockAnalysis analysis;
  Reanalyze(stored, config, scratch, analysis);
  return analysis;
}

void Reanalyze(const StoredSeries& stored, const AnalyzerConfig& config,
               AnalysisScratch& scratch, BlockAnalysis& out) {
  ReanalyzeSeries(stored.block, stored.ever_active, stored.probed,
                  stored.series.first_round, stored.series.values, config,
                  scratch, out);
}

void ReanalyzeSeries(net::Prefix24 block, int ever_active, bool probed,
                     std::int64_t first_round, std::span<const double> values,
                     const AnalyzerConfig& config, AnalysisScratch& scratch,
                     BlockAnalysis& out) {
  out.Reset(block, ever_active, probed);
  out.short_series.first_round = first_round;
  out.short_series.values.assign(values.begin(), values.end());
  if (!probed) return;
  // The stored series is already trimmed: enter the chain at its tail.
  AnalyzeSeries(std::nullopt, ever_active, config.schedule, config.diurnal,
                config.max_trend_addresses_per_day, nullptr, scratch, out);
}

}  // namespace sleepwalk::core
