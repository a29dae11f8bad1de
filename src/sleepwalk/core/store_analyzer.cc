#include "sleepwalk/core/store_analyzer.h"

#include <vector>

#include "sleepwalk/core/parallel_executor.h"

namespace sleepwalk::core {

namespace {

/// One worker's state, aligned so two workers never share a cache line.
struct alignas(64) SweepWorker {
  AnalysisScratch scratch;
  BlockAnalysis analysis;
  StoreAnalyzeStats stats;
};

void AnalyzeRange(BlockStore& store, std::size_t begin, std::size_t end,
                  const StoreAnalyzerConfig& config, SweepWorker& worker) {
  const auto prefixes = store.prefix_index();
  const auto rounds = store.rounds();
  const auto ever_active = store.ever_active();
  BlockAnalysis& analysis = worker.analysis;
  for (std::size_t i = begin; i < end; ++i) {
    const AvailabilityState estimator = store.ExportEstimator(i);
    analysis.Reset(net::Prefix24::FromIndex(prefixes[i]), ever_active[i],
                   rounds[i] > 0);
    if (analysis.probed) {
      ++worker.stats.analyzed;
      analysis.final_operational =
          AvailabilityOperational(estimator, store.config());
      analysis.mean_probes_per_round =
          static_cast<double>(store.probes()[i]) /
          static_cast<double>(rounds[i]);
      analysis.down_rounds = store.down_rounds()[i];
      store.CopySeriesOrdered(i, worker.scratch.observations);
      if (AnalyzeSeries(worker.scratch.observations, ever_active[i],
                        config.schedule, config.diurnal,
                        config.max_trend_addresses_per_day, nullptr,
                        worker.scratch, analysis)) {
        ++worker.stats.classified;
        if (analysis.diurnal.IsDiurnal()) ++worker.stats.diurnal;
      }
    }
    BlockVerdict verdict = VerdictOf(
        analysis, (store.flags()[i] & kBlockFlagQuarantined) != 0);
    verdict.prefix_index = prefixes[i];  // Prefix24 keeps only 24 bits
    store.RecordVerdict(i, verdict);
  }
}

}  // namespace

BlockVerdict VerdictOf(const BlockAnalysis& analysis, bool quarantined) {
  BlockVerdict verdict;
  verdict.prefix_index = analysis.block.Index();
  verdict.probed = analysis.probed;
  verdict.quarantined = quarantined;
  verdict.stationary = analysis.stationarity.stationary;
  verdict.classification =
      static_cast<std::uint8_t>(analysis.diurnal.classification);
  verdict.ever_active = analysis.ever_active;
  verdict.observed_days = analysis.observed_days;
  verdict.down_rounds = analysis.down_rounds;
  verdict.mean_short = analysis.mean_short;
  verdict.final_operational = analysis.final_operational;
  verdict.mean_probes_per_round = analysis.mean_probes_per_round;
  return verdict;
}

StoreAnalyzeStats AnalyzeStore(BlockStore& store,
                               const StoreAnalyzerConfig& config,
                               int workers) {
  const std::size_t n = store.size();
  const std::size_t used = FanOutWorkers(n, 1, workers);
  std::vector<SweepWorker> state(used);
  ForEachChunk(n, (n + used - 1) / used, workers,
               [&](std::size_t worker, std::size_t begin, std::size_t end) {
                 AnalyzeRange(store, begin, end, config, state[worker]);
               });
  StoreAnalyzeStats stats;
  for (const auto& worker : state) {
    stats.analyzed += worker.stats.analyzed;
    stats.classified += worker.stats.classified;
    stats.diurnal += worker.stats.diurnal;
  }
  return stats;
}

}  // namespace sleepwalk::core
