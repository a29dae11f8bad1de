// End-of-campaign analysis as a batch sweep over BlockStore columns.
//
// The live path (BlockAnalyzer::Finish) finalizes one block at a time
// from per-block heap state. At paper scale the analyzer input lives in
// the store's series ring columns instead: this sweep copies each ring
// in round order through AnalyzeSeries (core/block_analyzer.h), the
// chain Finish runs, into ONE BlockAnalysis and AnalysisScratch per
// worker, and records it through VerdictOf below. Only the accounting
// fields come from the store's columns.
//
// So for the same recorded samples the verdict columns equal
// BlockAnalyzer::Finish + VerdictOf by construction;
// tests/core/store_analyzer_test.cc checks them against a hand-written
// reference, and bench/parallel_scaling re-checks them at scale.
//
// Every classified block gets the whole spectrum: the §2.2 dominance
// test and strongest_bin compare the daily bin against every other
// bin, which no few-bin shortcut (Goertzel) can decide.
#ifndef SLEEPWALK_CORE_STORE_ANALYZER_H_
#define SLEEPWALK_CORE_STORE_ANALYZER_H_

#include <cstdint>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/probing/scheduler.h"

namespace sleepwalk::core {

/// Sweep knobs: the analysis-stage subset of AnalyzerConfig.
struct StoreAnalyzerConfig {
  probing::ScheduleConfig schedule;  ///< round_seconds + epoch_sec
  DiurnalConfig diurnal;
  /// Stationarity threshold: address changes per day (§2.2).
  double max_trend_addresses_per_day = 1.0;
};

/// What a sweep saw (summed across workers; deterministic).
struct StoreAnalyzeStats {
  std::uint64_t analyzed = 0;      ///< blocks with any recorded rounds
  std::uint64_t classified = 0;    ///< reached the classify stage
  std::uint64_t diurnal = 0;       ///< classified != non-diurnal
};

/// Maps a finished block's analysis to its fixed-width columnar verdict
/// (core/block_store.h): the projection the sweep records for every
/// block, and the one the store tests build their expected rows with.
BlockVerdict VerdictOf(const BlockAnalysis& analysis, bool quarantined);

/// Full-store sweep, one contiguous range per worker thread (<= 0 =
/// HardwareWorkers(), never more than there are blocks). Block verdicts
/// are index-local, so any worker count produces byte-identical columns.
StoreAnalyzeStats AnalyzeStore(BlockStore& store,
                               const StoreAnalyzerConfig& config,
                               int workers = 1);

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_STORE_ANALYZER_H_
