// Dataset-scale measurement pipeline: the A_12w-style campaign over many
// blocks, producing per-block analyses and aggregate diurnal counts.
#ifndef SLEEPWALK_CORE_PIPELINE_H_
#define SLEEPWALK_CORE_PIPELINE_H_

#include <cstdint>
#include <cstddef>
#include <functional>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/net/transport.h"

namespace sleepwalk::core {

/// One block to measure: its ever-active history and prior availability.
struct BlockTarget {
  net::Prefix24 block;
  std::vector<std::uint8_t> ever_active;
  double initial_availability = 0.5;
};

/// Aggregate counts over a dataset.
struct DiurnalCounts {
  std::int64_t strict = 0;
  std::int64_t relaxed = 0;  ///< relaxed but not strict
  std::int64_t non_diurnal = 0;
  std::int64_t skipped = 0;  ///< sparse-policy or too-short blocks

  std::int64_t probed() const noexcept {
    return strict + relaxed + non_diurnal;
  }
  double StrictFraction() const noexcept {
    const auto total = probed();
    return total > 0 ? static_cast<double>(strict) /
                           static_cast<double>(total)
                     : 0.0;
  }
  double EitherFraction() const noexcept {
    const auto total = probed();
    return total > 0 ? static_cast<double>(strict + relaxed) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// A full campaign's results.
struct DatasetResult {
  std::vector<BlockAnalysis> analyses;  ///< one per target, in order
  DiurnalCounts counts;
};

/// Campaign heartbeat payload, emitted after every finished block. The
/// deterministic fields (blocks/rounds/quarantined) also flow into the
/// obs log and metrics; the wall-derived rate and ETA only reach the
/// progress consumer (a live status line), never a deterministic sink.
struct CampaignProgress {
  std::size_t blocks_done = 0;
  std::size_t blocks_total = 0;
  std::int64_t rounds_done = 0;         ///< this process, incl. gaps
  std::uint64_t quarantined = 0;        ///< blocks abandoned so far
  double rounds_per_sec = 0.0;          ///< wall-clock rate; 0 if unknown
  /// Rounds until the next checkpoint write: blocks left to the next
  /// checkpoint_every_blocks boundary times the rounds per block, 0 on
  /// the block whose commit just wrote one; -1 when checkpointing is off.
  std::int64_t rounds_to_checkpoint = -1;

  /// Wall-clock seconds until the next checkpoint at the current rate;
  /// -1 when unknown.
  double CheckpointEtaSec() const noexcept {
    return rounds_to_checkpoint >= 0 && rounds_per_sec > 0.0
               ? static_cast<double>(rounds_to_checkpoint) / rounds_per_sec
               : -1.0;
  }
};

/// Progress callback, invoked with the full CampaignProgress.
using ProgressFn = std::function<void(const CampaignProgress&)>;

/// Runs an `n_rounds`-round campaign over every target through
/// `transport`: core::RunParallelCampaign at one worker over a
/// PlainShardChain, so blocks are measured one at a time on one
/// transport; `progress`, when set, is called after each block.
DatasetResult RunCampaign(std::vector<BlockTarget> targets,
                          net::Transport& transport, std::int64_t n_rounds,
                          const AnalyzerConfig& config = {},
                          std::uint64_t seed = 0x51ee9,
                          const ProgressFn& progress = {});

struct Dataset;  // core/dataset.h

/// Re-analyzes every stored series of `dataset` (stationarity screen +
/// FFT diurnal classification), one block per claim on `workers`
/// threads (<= 0 = HardwareWorkers(), never more than there are blocks).
/// Block i's analysis lands at index i and classification is a pure
/// per-block function, so the result is identical for any worker count.
std::vector<BlockAnalysis> ReanalyzeDataset(const Dataset& dataset,
                                            const AnalyzerConfig& config = {},
                                            int workers = 0);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_PIPELINE_H_
