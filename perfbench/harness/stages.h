// The public analysis stage chain, one layer span per stage. Shared by
// the campaign replay (after regularize + trim) and the reanalyze
// replay (whose stored series are already trimmed). Mirrors
// core::ReanalyzeSeries / BlockAnalyzer::Finish call for call, so its
// verdicts must equal theirs bit for bit.
#ifndef PERFBENCH_HARNESS_STAGES_H_
#define PERFBENCH_HARNESS_STAGES_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sleepwalk/core/analysis_scratch.h"
#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/stationarity.h"
#include "trace.h"

namespace perfbench {

/// Counts the replay makes where the work happens.
struct StageTally {
  std::uint64_t transforms = 0;
  std::vector<std::size_t> lengths;  ///< FFT input length per transform

  double MedianLength() const {
    if (lengths.empty()) return 0.0;
    std::vector<std::size_t> sorted = lengths;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    return static_cast<double>(sorted[sorted.size() / 2]);
  }
};

/// One block's analysis verdict as the replay re-derives it.
struct StageVerdict {
  sleepwalk::ts::StationarityResult stationarity;
  sleepwalk::core::DiurnalResult diurnal;
};

/// Stationarity -> spectrum -> classify over a trimmed series.
inline StageVerdict AnalyzeTrimmed(
    std::span<const double> values, int ever_active,
    const sleepwalk::core::AnalyzerConfig& config,
    sleepwalk::core::AnalysisScratch& scratch, StageTally& tally) {
  namespace core = sleepwalk::core;
  StageVerdict verdict;
  int n_days = 0;
  {
    const ScopedSpan span{"ts.stationarity"};
    n_days = sleepwalk::ts::WholeDays(values.size(),
                                      config.schedule.round_seconds);
    verdict.stationarity = sleepwalk::ts::TestStationarity(
        values, ever_active, config.max_trend_addresses_per_day,
        config.schedule.round_seconds, scratch.index);
  }
  verdict.diurnal.n_days = n_days;
  if (n_days < 2 || values.size() < 4) return verdict;
  {
    const ScopedSpan span{"fft.spectrum"};
    sleepwalk::fft::ComputeSpectrum(values, sleepwalk::fft::SpectrumOptions{},
                                    scratch.fft, scratch.spectrum);
  }
  ++tally.transforms;
  tally.lengths.push_back(values.size());
  {
    const ScopedSpan span{"core.diurnal.classify"};
    verdict.diurnal =
        core::ClassifySpectrum(scratch.spectrum, n_days, config.diurnal);
  }
  return verdict;
}

/// Bitwise equality of everything the analysis derives from a series.
inline bool SameVerdict(const StageVerdict& replay,
                        const sleepwalk::core::BlockAnalysis& live) {
  const auto& a = replay.diurnal;
  const auto& b = live.diurnal;
  const auto& s = replay.stationarity;
  const auto& t = live.stationarity;
  return a.classification == b.classification && a.n_days == b.n_days &&
         a.daily_bin == b.daily_bin && a.daily_amplitude == b.daily_amplitude &&
         a.phase == b.phase && a.strongest_bin == b.strongest_bin &&
         a.strongest_amplitude == b.strongest_amplitude &&
         a.strongest_cycles_per_day == b.strongest_cycles_per_day &&
         s.slope_per_round == t.slope_per_round &&
         s.addresses_per_day == t.addresses_per_day &&
         s.stationary == t.stationary;
}

/// Strict-diurnal verdicts against known intent.
struct Confusion {
  std::uint64_t true_positive = 0;
  std::uint64_t false_positive = 0;
  std::uint64_t false_negative = 0;

  void Add(bool intended, bool found_strict) {
    if (found_strict && intended) ++true_positive;
    if (found_strict && !intended) ++false_positive;
    if (!found_strict && intended) ++false_negative;
  }
  double precision() const {
    const auto found = true_positive + false_positive;
    return found > 0 ? static_cast<double>(true_positive) /
                           static_cast<double>(found)
                     : 0.0;
  }
  double recall() const {
    const auto intended = true_positive + false_negative;
    return intended > 0 ? static_cast<double>(true_positive) /
                              static_cast<double>(intended)
                        : 0.0;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STAGES_H_
