#include "sleepwalk/core/pipeline.h"

#include <memory>
#include <utility>

#include "sleepwalk/core/campaign_ledger.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/parallel_executor.h"

namespace sleepwalk::core {

DatasetResult RunCampaign(std::vector<BlockTarget> targets,
                          net::Transport& transport, std::int64_t n_rounds,
                          const AnalyzerConfig& config, std::uint64_t seed,
                          const ProgressFn& progress) {
  // The plain campaign is the hardened one with recovery switched off
  // (no checkpointing, no injected faults; on a well-behaved transport
  // the retry/quarantine paths never trigger), run by the one campaign
  // engine at one worker so the caller's transport is never shared.
  SupervisorConfig supervisor;
  supervisor.analyzer = config;
  supervisor.seed = seed;
  supervisor.progress = progress;
  ParallelConfig parallel;
  parallel.workers = 1;
  return RunParallelCampaign(
             std::move(targets),
             [&transport](std::size_t) {
               return std::make_unique<PlainShardChain>(transport);
             },
             n_rounds, supervisor, parallel)
      .result;
}

std::vector<BlockAnalysis> ReanalyzeDataset(const Dataset& dataset,
                                            const AnalyzerConfig& config,
                                            int workers) {
  const std::size_t n = dataset.blocks.size();
  std::vector<BlockAnalysis> analyses(n);
  // By-index writes into the pre-sized vector need no synchronization;
  // one AnalysisScratch per worker keeps the loop allocation-free once
  // its capacities are warm.
  std::vector<AnalysisScratch> scratch(FanOutWorkers(n, 1, workers));
  ForEachChunk(n, 1, workers,
               [&](std::size_t worker, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   Reanalyze(dataset.blocks[i], config, scratch[worker],
                             analyses[i]);
                 }
               });
  return analyses;
}

}  // namespace sleepwalk::core
