// The columnar analysis sweep (core/store_analyzer.h): for identical
// recorded samples, the verdict columns AnalyzeStore writes must be
// bitwise identical to the scalar BlockAnalyzer::Finish pipeline
// projected through VerdictOf — including after the series ring has
// wrapped, at any worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sleepwalk/core/availability.h"
#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/store_analyzer.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/stationarity.h"

namespace sleepwalk {
namespace {

using core::AnalyzerConfig;
using core::AvailabilityEstimator;
using core::BlockAnalysis;
using core::BlockAnalyzer;
using core::BlockStore;
using core::BlockVerdict;
using core::RoundSample;
using core::StoreAnalyzerConfig;
using core::SyntheticEverActive;
using core::SyntheticInitialAvailability;
using core::SyntheticRoundSample;
using core::VerdictOf;

/// The scalar reference: BlockAnalyzer::Finish's stages, step for step,
/// over one block's recorded rounds — accounting from the totals, then
/// regularize, trim to midnight, stationarity and FFT classification of
/// `raw`. ScalarReferenceMatchesBlockAnalyzerFinish pins it to Finish.
BlockAnalysis ScalarFinish(net::Prefix24 block, int ever_active,
                           std::span<const ts::Observation> raw,
                           double final_operational,
                           std::int64_t total_probes,
                           std::int64_t rounds_run, int down_rounds,
                           const AnalyzerConfig& config = {}) {
  BlockAnalysis out;
  out.block = block;
  out.ever_active = ever_active;
  out.probed = ever_active > 0 && ever_active >= config.min_ever_active &&
               rounds_run > 0;
  if (!out.probed) return out;
  out.final_operational = final_operational;
  out.mean_probes_per_round =
      static_cast<double>(total_probes) / static_cast<double>(rounds_run);
  out.down_rounds = down_rounds;

  core::AnalysisScratch scratch;
  ts::RawSeries series;
  for (const auto& observation : raw) {
    series.Add(observation.round, observation.value);
  }
  if (!ts::Regularize(series, scratch.regularize, scratch.even) ||
      !ts::TrimToMidnightUtc(scratch.even, config.schedule.epoch_sec,
                             config.schedule.round_seconds,
                             out.short_series)) {
    return out;
  }
  out.observed_days = ts::WholeDays(out.short_series.size(),
                                    config.schedule.round_seconds);
  out.mean_short = std::accumulate(out.short_series.values.begin(),
                                   out.short_series.values.end(), 0.0) /
                   static_cast<double>(out.short_series.values.size());
  out.stationarity = ts::TestStationarity(
      out.short_series.values, ever_active,
      config.max_trend_addresses_per_day, config.schedule.round_seconds,
      scratch.index);
  out.diurnal = core::ClassifyDiurnal(out.short_series.values,
                                      out.observed_days, config.diurnal,
                                      nullptr, scratch);
  return out;
}

// Drives `store` (already Reset with a series capacity) and returns,
// per block, the scalar reference analysis of the exact same samples:
// estimator trajectory from the scalar AvailabilityEstimator, raw
// series limited to what the ring retained (the newest `capacity`
// samples), probe/down accounting over the full run.
std::vector<BlockAnalysis> DriveBoth(BlockStore& store, std::size_t n_blocks,
                                     std::int64_t n_rounds,
                                     std::int32_t capacity,
                                     std::uint64_t seed) {
  std::vector<AvailabilityEstimator> estimators;
  std::vector<std::int32_t> ever_active(n_blocks);
  estimators.reserve(n_blocks);
  std::vector<std::vector<ts::Observation>> raw(n_blocks);
  std::vector<std::int64_t> total_probes(n_blocks, 0);
  std::vector<int> down_rounds(n_blocks, 0);

  for (std::size_t i = 0; i < n_blocks; ++i) {
    const auto prefix = static_cast<std::uint32_t>(i);
    const double prior = SyntheticInitialAvailability(seed, prefix);
    ever_active[i] = SyntheticEverActive(seed, prefix);
    store.SeedBlock(i, prefix, prior);
    store.SetEverActive(i, ever_active[i]);
    estimators.emplace_back(prior, store.config());
  }

  std::vector<RoundSample> round(n_blocks);
  for (std::int64_t r = 0; r < n_rounds; ++r) {
    for (std::size_t i = 0; i < n_blocks; ++i) {
      round[i] =
          SyntheticRoundSample(seed, static_cast<std::uint32_t>(i), r);
      estimators[i].Observe(round[i].positives, round[i].total);
      raw[i].push_back({r, estimators[i].ShortTerm()});
      total_probes[i] += round[i].total;
      if (round[i].positives <= 0) ++down_rounds[i];
    }
    store.ObserveRound(0, n_blocks, round);
    store.RecordSeriesRound(0, n_blocks, r);
  }

  std::vector<BlockAnalysis> expected;
  expected.reserve(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    // The ring holds the newest `capacity` samples; the scalar
    // reference analyzes exactly that window.
    const std::size_t keep =
        std::min(raw[i].size(), static_cast<std::size_t>(capacity));
    expected.push_back(ScalarFinish(
        net::Prefix24::FromIndex(static_cast<std::uint32_t>(i)),
        ever_active[i],
        std::span<const ts::Observation>{raw[i]}.last(keep),
        estimators[i].Operational(), total_probes[i], n_rounds,
        down_rounds[i]));
  }
  return expected;
}

void ExpectVerdictColumnsMatch(const BlockStore& store,
                               const std::vector<BlockAnalysis>& expected) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const BlockVerdict expect = VerdictOf(expected[i], false);
    EXPECT_EQ(store.prefix_index()[i], expect.prefix_index) << "block " << i;
    EXPECT_EQ((store.flags()[i] & core::kBlockFlagProbed) != 0, expect.probed)
        << "block " << i;
    EXPECT_EQ((store.flags()[i] & core::kBlockFlagStationary) != 0,
              expect.stationary)
        << "block " << i;
    EXPECT_EQ(store.classification()[i], expect.classification)
        << "block " << i;
    EXPECT_EQ(store.ever_active()[i], expect.ever_active) << "block " << i;
    EXPECT_EQ(store.observed_days()[i], expect.observed_days) << "block " << i;
    EXPECT_EQ(store.down_rounds()[i], expect.down_rounds) << "block " << i;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bitwise.
    EXPECT_EQ(store.mean_short()[i], expect.mean_short) << "block " << i;
    EXPECT_EQ(store.final_operational()[i], expect.final_operational)
        << "block " << i;
    EXPECT_EQ(store.mean_probes_per_round()[i], expect.mean_probes_per_round)
        << "block " << i;
  }
}

TEST(StoreAnalyzer, ScalarReferenceMatchesBlockAnalyzerFinish) {
  // The reference above must be Finish itself, not an approximation:
  // replay a real probed block's recorded rounds through it and demand
  // the same analysis to the bit.
  sim::WorldConfig world_config;
  world_config.total_blocks = 6;
  world_config.seed = 0x5ca1a;
  const auto world = sim::SimWorld::Generate(world_config);
  const AnalyzerConfig config;
  const probing::RoundScheduler scheduler{config.schedule};
  auto transport = world.MakeTransport(3);
  int compared = 0;
  for (const auto& block : world.blocks()) {
    BlockAnalyzer analyzer{block.spec.block,
                           sim::EverActiveOctets(block.spec),
                           sim::TrueAvailability(block.spec, 13 * 3600),
                           0x9e37, config};
    analyzer.RunCampaign(*transport, scheduler.RoundsForDays(3));
    const BlockAnalysis finished = analyzer.Finish();
    if (!finished.probed) continue;
    const BlockAnalysis reference = ScalarFinish(
        block.spec.block, finished.ever_active,
        analyzer.raw_series().observations(),
        analyzer.estimator().Operational(),
        /*total_probes=*/0, analyzer.rounds_run(), finished.down_rounds);
    EXPECT_EQ(reference.short_series.values, finished.short_series.values);
    EXPECT_EQ(reference.observed_days, finished.observed_days);
    EXPECT_EQ(reference.mean_short, finished.mean_short);
    EXPECT_EQ(reference.final_operational, finished.final_operational);
    EXPECT_EQ(reference.stationarity.stationary,
              finished.stationarity.stationary);
    EXPECT_EQ(reference.stationarity.slope_per_round,
              finished.stationarity.slope_per_round);
    EXPECT_EQ(reference.diurnal.classification,
              finished.diurnal.classification);
    EXPECT_EQ(reference.diurnal.daily_amplitude,
              finished.diurnal.daily_amplitude);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(StoreAnalyzer, SweepMatchesScalarFinishBitwise) {
  // 280 rounds fit in a 300-slot ring: the sweep sees every sample the
  // scalar reference analyzes, so every verdict column must agree to
  // the bit.
  constexpr std::size_t kBlocks = 32;
  constexpr std::int32_t kCapacity = 300;
  BlockStore store;
  store.Reset(kBlocks, {}, kCapacity);
  const auto expected = DriveBoth(store, kBlocks, 280, kCapacity, 0x5eed);

  const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{}, 1);
  EXPECT_EQ(stats.analyzed, kBlocks);
  EXPECT_EQ(stats.classified, kBlocks);
  ExpectVerdictColumnsMatch(store, expected);
}

TEST(StoreAnalyzer, WraparoundSweepEqualsScalarOverTheRetainedWindow) {
  // 400 rounds through a 300-slot ring: the oldest 100 samples are
  // overwritten. The sweep must analyze exactly the retained window —
  // the scalar reference is Finish() over the newest 300 samples with
  // full-campaign probe accounting.
  constexpr std::size_t kBlocks = 24;
  constexpr std::int32_t kCapacity = 300;
  BlockStore store;
  store.Reset(kBlocks, {}, kCapacity);
  const auto expected = DriveBoth(store, kBlocks, 400, kCapacity, 0x1196);

  const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{}, 1);
  EXPECT_EQ(stats.analyzed, kBlocks);
  ExpectVerdictColumnsMatch(store, expected);
}

TEST(StoreAnalyzer, RingWraparoundKeepsTheNewestSamplesInOrder) {
  BlockStore store;
  store.Reset(2, {}, 8);
  for (std::int64_t r = 0; r < 20; ++r) {
    store.AppendSeriesSample(0, r, 0.01 * static_cast<double>(r));
  }
  EXPECT_EQ(store.SeriesLength(0), 8);
  EXPECT_EQ(store.SeriesLength(1), 0);

  std::vector<ts::Observation> ordered;
  store.CopySeriesOrdered(0, ordered);
  ASSERT_EQ(ordered.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    const auto round = static_cast<std::int64_t>(12 + k);
    EXPECT_EQ(ordered[k].round, round) << "slot " << k;
    EXPECT_EQ(ordered[k].value, 0.01 * static_cast<double>(round))
        << "slot " << k;
  }
}

TEST(StoreAnalyzer, BatchedSeriesKernelMatchesPerBlockAppends) {
  // RecordSeriesRound must record, per block, exactly what
  // AppendSeriesSample(i, round, ShortTerm(i)) would — including after
  // wraparound (48 rounds through 16-slot rings).
  constexpr std::size_t kBlocks = 16;
  BlockStore batched;
  BlockStore scalar;
  batched.Reset(kBlocks, {}, 16);
  scalar.Reset(kBlocks, {}, 16);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    batched.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
    scalar.SeedBlock(i, static_cast<std::uint32_t>(i), 0.5);
  }
  std::vector<RoundSample> round(kBlocks);
  for (std::int64_t r = 0; r < 48; ++r) {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      round[i] = SyntheticRoundSample(7, static_cast<std::uint32_t>(i), r);
    }
    batched.ObserveRound(0, kBlocks, round);
    batched.RecordSeriesRound(0, kBlocks, r);
    scalar.ObserveRound(0, kBlocks, round);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      scalar.AppendSeriesSample(i, r, scalar.ShortTerm(i));
    }
  }
  EXPECT_EQ(batched.Digest(), scalar.Digest());
}

TEST(StoreAnalyzer, WorkerCountIsInvisibleInTheVerdictColumns) {
  constexpr std::size_t kBlocks = 64;
  std::uint64_t digest1 = 0;
  core::StoreAnalyzeStats stats1;
  for (const int workers : {1, 5}) {
    BlockStore store;
    store.Reset(kBlocks, {}, 300);
    DriveBoth(store, kBlocks, 280, 300, 0xabc);
    const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{},
                                          workers);
    if (workers == 1) {
      digest1 = store.Digest();
      stats1 = stats;
    } else {
      EXPECT_EQ(store.Digest(), digest1);
      EXPECT_EQ(stats.analyzed, stats1.analyzed);
      EXPECT_EQ(stats.classified, stats1.classified);
      EXPECT_EQ(stats.diurnal, stats1.diurnal);
    }
  }
}

TEST(StoreAnalyzer, UnprobedBlocksAreSkippedNotClassified) {
  BlockStore store;
  store.Reset(3, {}, 16);
  store.SeedBlock(0, 10, 0.5);
  store.SeedBlock(1, 11, 0.5);  // never observed: no rounds
  store.SeedBlock(2, 12, 0.5);
  for (std::int64_t r = 0; r < 8; ++r) {
    store.Observe(0, 1, 2);
    store.Observe(2, 0, 2);
    store.AppendSeriesSample(0, r, store.ShortTerm(0));
    store.AppendSeriesSample(2, r, store.ShortTerm(2));
  }
  const auto stats = core::AnalyzeStore(store, StoreAnalyzerConfig{}, 1);
  EXPECT_EQ(stats.analyzed, 2u);
  EXPECT_EQ(stats.classified, 0u) << "8 samples is far short of 2 days";
  EXPECT_EQ(store.flags()[1] & core::kBlockFlagProbed, 0);
  EXPECT_NE(store.flags()[0] & core::kBlockFlagProbed, 0);
}

}  // namespace
}  // namespace sleepwalk
