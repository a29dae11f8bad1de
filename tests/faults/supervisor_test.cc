// Campaign supervision policy (core/supervisor.h) as the campaign engine
// runs it at one worker over one transport: retry/backoff, quarantine,
// gap windows, forced restarts, and the resilience report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/sim/world.h"

namespace sleepwalk {
namespace {

std::vector<core::BlockTarget> TargetsOf(const sim::SimWorld& world) {
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  return targets;
}

sim::SimWorld SmallWorld(std::uint64_t seed = 0xfab1e) {
  sim::WorldConfig config;
  config.total_blocks = 12;
  config.seed = seed;
  return sim::SimWorld::Generate(config);
}

/// The campaign engine at one worker, probing through `transport`.
core::CampaignOutcome RunOnTransport(std::vector<core::BlockTarget> targets,
                                     net::Transport& transport,
                                     std::int64_t n_rounds,
                                     const core::SupervisorConfig& config) {
  core::ParallelConfig parallel;
  parallel.workers = 1;
  return core::RunParallelCampaign(
      std::move(targets),
      [&transport](std::size_t) {
        return std::make_unique<core::PlainShardChain>(transport);
      },
      n_rounds, config, parallel);
}

/// Throws on the first `failures_per_round` probes of every round instant,
/// then behaves; exercises the retry path without a FaultPlan. Remembers
/// the last probed block so a retry delay can be attributed to it.
class FlakyTransport final : public net::Transport {
 public:
  FlakyTransport(net::Transport& inner, int failures_per_instant)
      : inner_(inner), failures_per_instant_(failures_per_instant) {}

  net::ProbeStatus Probe(net::Ipv4Addr target,
                         std::int64_t when_sec) override {
    last_block_ = net::Prefix24{target}.Index();
    if (when_sec != current_when_) {
      current_when_ = when_sec;
      failures_so_far_ = 0;
    }
    if (failures_so_far_ < failures_per_instant_) {
      ++failures_so_far_;
      throw net::TransportError{"flaky"};
    }
    return inner_.Probe(target, when_sec);
  }

  std::uint32_t last_block() const noexcept { return last_block_; }

 private:
  net::Transport& inner_;
  int failures_per_instant_;
  std::uint32_t last_block_ = 0;
  std::int64_t current_when_ = -1;
  int failures_so_far_ = 0;
};

TEST(Supervisor, MatchesPlainCampaignOnCleanTransport) {
  const auto world = SmallWorld();
  core::SupervisorConfig config;
  auto transport_a = world.MakeTransport(3);
  const auto plain = core::RunCampaign(TargetsOf(world), *transport_a, 200,
                                       config.analyzer, config.seed);
  auto transport_b = world.MakeTransport(3);
  const auto outcome =
      RunOnTransport(TargetsOf(world), *transport_b, 200, config);
  ASSERT_EQ(plain.analyses.size(), outcome.result.analyses.size());
  EXPECT_EQ(plain.counts.strict, outcome.result.counts.strict);
  EXPECT_EQ(plain.counts.skipped, outcome.result.counts.skipped);
  for (std::size_t i = 0; i < plain.analyses.size(); ++i) {
    EXPECT_EQ(plain.analyses[i].short_series.values,
              outcome.result.analyses[i].short_series.values);
  }
  EXPECT_EQ(outcome.stats.retries, 0u);
  EXPECT_EQ(outcome.stats.rounds_failed, 0u);
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_FALSE(outcome.resumed);
}

TEST(Supervisor, RetriesRecoverFromTransientErrors) {
  const auto world = SmallWorld();
  auto inner = world.MakeTransport(3);
  FlakyTransport flaky{*inner, 1};  // first probe of every round throws
  core::SupervisorConfig config;
  std::vector<std::pair<std::uint32_t, double>> delays;  // (block, delay)
  config.sleeper = [&delays, &flaky](double d) {
    delays.emplace_back(flaky.last_block(), d);
  };
  const auto outcome = RunOnTransport(TargetsOf(world), flaky, 50, config);
  EXPECT_GT(outcome.stats.retries, 0u);
  EXPECT_EQ(outcome.stats.rounds_failed, 0u);
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_EQ(delays.size(), outcome.stats.retries);
  // The engine sums each block's delays into a private delta and folds
  // the deltas in block order; adding them up the same way must match
  // to the bit.
  double sum = 0.0;
  double block_sum = 0.0;
  const double cap = config.retry.max_delay_sec * (1.0 + config.retry.jitter);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const auto [block, delay] = delays[i];
    EXPECT_GE(delay, 0.0);
    EXPECT_LE(delay, cap);
    if (i > 0 && block != delays[i - 1].first) {
      sum += block_sum;
      block_sum = 0.0;
    }
    block_sum += delay;
  }
  sum += block_sum;
  EXPECT_EQ(sum, outcome.stats.backoff_seconds);
}

TEST(Supervisor, QuarantinesPersistentlyFailingBlocksOnly) {
  const auto world = SmallWorld();
  auto targets = TargetsOf(world);
  const auto dead_block = targets[2].block;

  auto inner = world.MakeTransport(3);
  faults::FaultPlan plan;
  plan.dead_blocks = {dead_block.Index()};
  plan.burst.enabled = true;
  plan.burst.loss_bad = 0.9;  // >= 20% long-run loss, bursty
  plan.burst.p_good_to_bad = 0.1;
  plan.burst.p_bad_to_good = 0.25;
  faults::FaultyTransport transport{*inner, plan};

  core::SupervisorConfig config;
  config.forced_restart_rounds = {20, 40};  // two prober restarts
  const auto outcome =
      RunOnTransport(std::move(targets), transport, 60, config);

  // The campaign finished: one analysis per target, despite >=20% bursty
  // loss and two restarts; only the dead block was quarantined.
  ASSERT_EQ(outcome.result.analyses.size(), world.blocks().size());
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined[0], dead_block);
  EXPECT_EQ(outcome.stats.quarantined_blocks, 1u);
  EXPECT_GT(outcome.result.counts.skipped, 0);
  EXPECT_GT(outcome.stats.rounds_failed, 0u);

  // Probe accounting balances: sent = answered + lost + rate-limited
  // + unreachable.
  auto stats = outcome.stats;
  stats.probes.Merge(transport.accounting());
  EXPECT_TRUE(stats.probes.Balanced());
  EXPECT_GT(stats.probes.lost, 0u);

  // Forced restarts fired once per surviving block per scheduled round.
  EXPECT_GT(outcome.stats.forced_restarts, 0u);
}

TEST(Supervisor, GapWindowsSkipRoundsButKeepAnalyses) {
  const auto world = SmallWorld();
  auto transport = world.MakeTransport(3);
  core::SupervisorConfig config;
  config.gap_round_windows = {{10, 20}};
  const auto outcome =
      RunOnTransport(TargetsOf(world), *transport, 400, config);
  // 10 gap rounds per block.
  EXPECT_EQ(outcome.stats.rounds_gapped, 10u * world.blocks().size());
  ASSERT_EQ(outcome.result.analyses.size(), world.blocks().size());
  for (const auto& analysis : outcome.result.analyses) {
    if (analysis.probed) {
      // Gapped rounds produced no raw samples, yet the series was
      // regularized over the hole.
      EXPECT_GT(analysis.short_series.values.size(), 0u);
    }
  }
}

TEST(Supervisor, CheckpointedCampaignIsIdempotentOnResume) {
  const auto world = SmallWorld();
  const std::string path =
      testing::TempDir() + "/sleepwalk_supervisor_stop.ck";
  std::remove(path.c_str());

  core::SupervisorConfig config;
  config.checkpoint_path = path;
  auto transport = world.MakeTransport(3);
  auto first = RunOnTransport(TargetsOf(world), *transport, 40, config);
  ASSERT_FALSE(first.stopped_early);
  ASSERT_GT(first.stats.checkpoints_written, 0u);

  // A finished campaign resumed from its own final checkpoint is
  // idempotent: nothing re-runs, the stored result comes back.
  auto transport_b = world.MakeTransport(3);
  auto resumed = RunOnTransport(TargetsOf(world), *transport_b, 40, config);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_EQ(resumed.result.analyses.size(), first.result.analyses.size());
  for (std::size_t i = 0; i < first.result.analyses.size(); ++i) {
    EXPECT_EQ(first.result.analyses[i].short_series.values,
              resumed.result.analyses[i].short_series.values);
  }
  std::remove(path.c_str());
}

TEST(Supervisor, MismatchedFingerprintRefusesResume) {
  const auto world = SmallWorld();
  const std::string path =
      testing::TempDir() + "/sleepwalk_supervisor_fp.ck";
  std::remove(path.c_str());

  core::SupervisorConfig config;
  config.checkpoint_path = path;
  auto transport = world.MakeTransport(3);
  const auto first =
      RunOnTransport(TargetsOf(world), *transport, 30, config);
  ASSERT_FALSE(first.resumed);

  // Different round count => different campaign => fresh start.
  auto transport_b = world.MakeTransport(3);
  const auto second =
      RunOnTransport(TargetsOf(world), *transport_b, 31, config);
  EXPECT_FALSE(second.resumed);
  std::remove(path.c_str());
}

TEST(ResilienceReport, PrintsBalancedTableAndCsv) {
  report::ResilienceStats stats;
  stats.probes.attempts = 100;
  stats.probes.errors = 4;
  stats.probes.answered = 70;
  stats.probes.lost = 20;
  stats.probes.rate_limited = 5;
  stats.probes.unreachable = 1;
  stats.rounds_attempted = 50;
  stats.retries = 3;
  stats.backoff_seconds = 1.5;
  ASSERT_TRUE(stats.probes.Balanced());

  std::ostringstream out;
  report::PrintResilienceReport(out, stats);
  EXPECT_NE(out.str().find("probe attempts"), std::string::npos);
  EXPECT_NE(out.str().find("quarantined blocks"), std::string::npos);
  EXPECT_EQ(out.str().find("WARNING"), std::string::npos);

  stats.probes.lost = 19;  // unbalance it
  std::ostringstream warn;
  report::PrintResilienceReport(warn, stats);
  EXPECT_NE(warn.str().find("WARNING"), std::string::npos);

  const auto header = report::ResilienceCsvHeader();
  const auto row = report::ResilienceCsvRow(stats);
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
}

TEST(ResilienceReport, MergeAccumulates) {
  report::ResilienceStats a;
  a.retries = 2;
  a.probes.attempts = 10;
  report::ResilienceStats b;
  b.retries = 3;
  b.probes.attempts = 5;
  b.resumed_from_checkpoint = true;
  a.Merge(b);
  EXPECT_EQ(a.retries, 5u);
  EXPECT_EQ(a.probes.attempts, 15u);
  EXPECT_TRUE(a.resumed_from_checkpoint);
}

}  // namespace
}  // namespace sleepwalk
