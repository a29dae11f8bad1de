// Thread-safety stress for the parallel executor and the ForEachChunk
// fan-out, built as its own binary so the CI `tsan` job can run exactly
// this under -fsanitize=thread (alongside the obs concurrency stress).
// Assertions here are sanity floors; the real oracle is the sanitizer
// observing 8 workers claiming blocks from one counter, probing through
// fault-injecting chains, and publishing results through the completion
// queue while the coordinator merges telemetry and writes checkpoints.
// The exactly-once test is the exception: it counts every block run,
// which no byte-identity check can see.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/net/rate_limiter.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/obs/log.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/obs/trace.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk {
namespace {

TEST(ParallelStress, EightWorkersWithFaultsAndLiveTelemetry) {
  sim::WorldConfig world_config;
  world_config.total_blocks = 64;
  world_config.seed = 0x57e55;
  const auto world = sim::SimWorld::Generate(world_config);

  faults::FaultPlan plan;
  plan.iid_loss = 0.08;
  plan.burst.enabled = true;
  plan.rate_limit_per_window = 12;
  plan.dead_blocks = {world.blocks()[5].spec.block.Index()};

  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }

  // Live shared sinks: per-block buffers are worker-private, but the
  // campaign-level logger/registry/tracer see concurrent coordinator
  // writes interleaved with worker-side block construction.
  obs::Logger logger{obs::LogConfig{obs::Level::kDebug,
                                    /*deterministic=*/true}};
  std::ostringstream text;
  std::ostringstream jsonl;
  logger.AddTextSink(&text);
  logger.AddJsonlSink(&jsonl);
  obs::Registry registry;
  obs::Tracer tracer;

  core::SupervisorConfig config;
  config.seed = 3;
  config.forced_restart_rounds = {30};
  config.checkpoint_path = testing::TempDir() + "/parallel_stress.ck";
  std::remove(config.checkpoint_path.c_str());
  config.obs.log = &logger;
  config.obs.metrics = &registry;
  config.obs.tracer = &tracer;

  core::ShardFactory factory = [&world, &plan](std::size_t) {
    struct Chain final : core::ShardChain {
      Chain(const sim::SimWorld& world, const faults::FaultPlan& plan)
          : inner{world.MakeTransport(17)}, faulty{*inner, plan} {}
      net::Transport& transport() override { return faulty; }
      void AttachObs(const obs::Context& context) override {
        faulty.AttachObs(context);
      }
      report::ProbeAccounting accounting() const override {
        return faulty.accounting();
      }
      std::unique_ptr<sim::SimTransport> inner;
      faults::FaultyTransport faulty;
    };
    return std::make_unique<Chain>(world, plan);
  };

  core::ParallelConfig parallel;
  parallel.workers = 8;
  const auto n_targets = targets.size();
  const auto outcome = core::RunParallelCampaign(std::move(targets), factory,
                                                 90, config, parallel);

  EXPECT_EQ(outcome.result.analyses.size(), n_targets);
  EXPECT_GT(outcome.stats.probes.attempts, 0);
  EXPECT_GE(outcome.stats.quarantined_blocks, 1);
  EXPECT_FALSE(jsonl.str().empty());
  std::remove(config.checkpoint_path.c_str());
}

TEST(ParallelStress, ShardedRateLimiterUnderContention) {
  net::ShardedRateLimiter limiter{200.0, 16.0, 8};
  std::atomic<long> granted{0};
  std::vector<std::thread> workers;
  for (std::size_t shard = 0; shard < 8; ++shard) {
    workers.emplace_back([&limiter, &granted, shard] {
      for (int tick = 0; tick < 20000; ++tick) {
        if (limiter.TryAcquire(shard, tick / 1000.0)) {
          granted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_LE(static_cast<double>(granted.load()), 200.0 * 20.0 + 16.0 + 1.0);
  EXPECT_GT(granted.load(), 0);
}

TEST(ParallelStress, ForEachChunkVisitsEveryIndexOnceInContiguousChunks) {
  for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
    for (const int workers : {1, 3, 8}) {
      const std::size_t ceil_share =
          (n + static_cast<std::size_t>(workers) - 1) /
          static_cast<std::size_t>(workers);
      for (const std::size_t grain : {std::size_t{1}, ceil_share}) {
        const std::size_t step = std::max<std::size_t>(grain, 1);
        const std::size_t chunks = (n + step - 1) / step;
        const auto max_threads =
            std::min(static_cast<std::size_t>(workers), chunks);
        SCOPED_TRACE("n " + std::to_string(n) + " workers " +
                     std::to_string(workers) + " grain " +
                     std::to_string(grain));
        std::vector<std::atomic<int>> visits(n);
        std::mutex mutex;
        std::set<std::thread::id> threads;
        std::atomic<bool> bad_chunk{false};
        core::ForEachChunk(
            n, grain, workers,
            [&](std::size_t worker, std::size_t begin, std::size_t end) {
              // A chunk is [k * grain, min(n, (k + 1) * grain)).
              if (begin % step != 0 || end != std::min(n, begin + step) ||
                  worker >= max_threads) {
                bad_chunk.store(true);
                return;
              }
              for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
              const std::lock_guard<std::mutex> lock{mutex};
              threads.insert(std::this_thread::get_id());
            });
        EXPECT_FALSE(bad_chunk.load());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[i].load(), 1) << "index " << i;
        }
        EXPECT_LE(threads.size(), max_threads);
        EXPECT_EQ(core::FanOutWorkers(n, grain, workers),
                  std::max<std::size_t>(max_threads, 1));
        if (max_threads == 1) {
          // One worker runs inline: no thread is started.
          EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
        }
      }
    }
  }
}

TEST(ParallelStress, FanOutWorkersResolvesZeroToTheHardware) {
  const auto hw = static_cast<std::size_t>(core::HardwareWorkers());
  EXPECT_EQ(core::FanOutWorkers(1000, 1, 0), std::min<std::size_t>(hw, 1000));
  EXPECT_EQ(core::FanOutWorkers(1000, 1, -2), std::min<std::size_t>(hw, 1000));
  EXPECT_EQ(core::FanOutWorkers(2, 1, 0), std::min<std::size_t>(hw, 2));
  EXPECT_EQ(core::FanOutWorkers(0, 1, 0), 1u);
  EXPECT_EQ(core::FanOutWorkers(10, 4, 8), 3u);  // ceil(10 / 4) chunks
}

// Every block is measured exactly once, fresh or resumed. The ordered
// commit stage would drop a duplicate result without a trace, so the
// byte-identity contracts cannot see a block handed out twice; the
// number of AttachObs calls (one per RunBlock) can.
TEST(ParallelStress, ResumedCampaignMeasuresEachRemainingBlockOnce) {
  sim::WorldConfig world_config;
  world_config.total_blocks = 24;
  world_config.seed = 0x0dd5;
  const auto world = sim::SimWorld::Generate(world_config);
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  const std::size_t n = targets.size();
  constexpr std::int64_t kRounds = 60;
  static constexpr char kPath[] = "/exactly_once/ck.slck";

  struct CountingChain final : core::ShardChain {
    CountingChain(const sim::SimWorld& world, std::atomic<std::size_t>& runs)
        : inner{world.MakeTransport(5)}, runs{runs} {}
    net::Transport& transport() override { return *inner; }
    void AttachObs(const obs::Context&) override {
      runs.fetch_add(1, std::memory_order_relaxed);
    }
    std::unique_ptr<sim::SimTransport> inner;
    std::atomic<std::size_t>& runs;
  };
  // Runs the campaign on `env` and returns it with its block-run count.
  const auto run = [&](storage::Env& env, int workers,
                       std::int64_t stop_after_rounds) {
    std::atomic<std::size_t> runs{0};
    core::SupervisorConfig config;
    config.checkpoint_path = kPath;
    config.env = &env;
    config.stop_after_rounds = stop_after_rounds;
    core::ParallelConfig parallel;
    parallel.workers = workers;
    auto outcome = core::RunParallelCampaign(
        targets,
        [&world, &runs](std::size_t) {
          return std::make_unique<CountingChain>(world, runs);
        },
        kRounds, config, parallel);
    return std::pair{std::move(outcome), runs.load()};
  };
  const auto file_bytes = [](storage::Env& env) {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(env.ReadAll(kPath, bytes).ok());
    return bytes;
  };

  std::vector<std::uint8_t> clean_file;
  for (const int workers : {3, 8}) {
    SCOPED_TRACE("fresh at " + std::to_string(workers) + " workers");
    storage::MemEnv env;
    const auto [outcome, runs] = run(env, workers, 0);
    EXPECT_EQ(outcome.result.analyses.size(), n);
    EXPECT_EQ(runs, n);
    clean_file = file_bytes(env);
  }

  storage::MemEnv env;
  const auto [killed, killed_runs] = run(env, 8, 5 * kRounds);
  ASSERT_TRUE(killed.stopped_early);
  const std::size_t committed = killed.result.analyses.size();
  ASSERT_GT(committed, 0u);
  ASSERT_LT(committed, n);
  EXPECT_GE(killed_runs, committed);

  const auto [resumed, resumed_runs] = run(env, 3, 0);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.result.analyses.size(), n);
  EXPECT_EQ(resumed_runs, n - committed);
  EXPECT_EQ(file_bytes(env), clean_file);
}

}  // namespace
}  // namespace sleepwalk
