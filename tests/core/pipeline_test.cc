#include "sleepwalk/core/pipeline.h"

#include <gtest/gtest.h>

#include "sleepwalk/sim/block.h"
#include "sleepwalk/sim/survey.h"

namespace sleepwalk::core {
namespace {

sim::BlockSpec MakeSpec(std::uint32_t index, int n_always, int n_diurnal) {
  sim::BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(index);
  spec.seed = index * 0x9e37u + 1;
  spec.n_always = static_cast<std::uint8_t>(n_always);
  spec.n_diurnal = static_cast<std::uint8_t>(n_diurnal);
  spec.response_prob = 0.92F;
  spec.on_start_sec = 8.0F * 3600.0F;
  spec.on_duration_sec = 9.0F * 3600.0F;
  spec.phase_spread_sec = 1.5F * 3600.0F;
  return spec;
}

TEST(RunCampaign, ClassifiesMixedPopulation) {
  std::vector<sim::BlockSpec> specs;
  // 10 diurnal, 10 always-on, 3 sparse.
  for (std::uint32_t i = 0; i < 10; ++i) {
    specs.push_back(MakeSpec(1000 + i, 20, 120));
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    specs.push_back(MakeSpec(2000 + i, 120, 0));
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    specs.push_back(MakeSpec(3000 + i, 6, 0));
  }

  sim::SimTransport transport{11};
  std::vector<BlockTarget> targets;
  for (const auto& spec : specs) {
    transport.AddBlock(&spec);
    targets.push_back({spec.block, sim::EverActiveOctets(spec),
                       sim::TrueAvailability(spec, 12 * 3600)});
  }

  AnalyzerConfig config;
  probing::RoundScheduler scheduler{config.schedule};
  const auto result = RunCampaign(std::move(targets), transport,
                                  scheduler.RoundsForDays(10), config);

  ASSERT_EQ(result.analyses.size(), 23u);
  EXPECT_EQ(result.counts.skipped, 3);
  EXPECT_EQ(result.counts.probed(), 20);
  // Nearly all 10 diurnal blocks detected at least as relaxed. The
  // relaxed class catches some noise blocks too — EWMA smoothing gives
  // A-hat_s a red spectrum, and the paper's relaxed test has no
  // dominance requirement (hence their 25% relaxed vs 11% strict) — but
  // no always-on block may pass the *strict* test.
  EXPECT_GE(result.counts.strict + result.counts.relaxed, 8);
  EXPECT_GE(result.counts.non_diurnal, 4);
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_FALSE(result.analyses[i].diurnal.IsStrict())
        << "always-on block " << i << " classified strictly diurnal";
  }
  // The strict detections are the truly diurnal blocks (first ten).
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(result.analyses[i].diurnal.IsDiurnal())
        << "diurnal block " << i << " missed entirely";
  }

  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(result.analyses[i].probed);
  }
  for (std::size_t i = 20; i < 23; ++i) {
    EXPECT_FALSE(result.analyses[i].probed);
  }
}

TEST(RunCampaign, CountsFractions) {
  DiurnalCounts counts;
  counts.strict = 11;
  counts.relaxed = 14;
  counts.non_diurnal = 75;
  EXPECT_EQ(counts.probed(), 100);
  EXPECT_DOUBLE_EQ(counts.StrictFraction(), 0.11);
  EXPECT_DOUBLE_EQ(counts.EitherFraction(), 0.25);
  EXPECT_DOUBLE_EQ(DiurnalCounts{}.StrictFraction(), 0.0);
}

TEST(RunCampaign, ProgressCallbackInvoked) {
  const auto spec = MakeSpec(100, 50, 0);
  sim::SimTransport transport{1};
  transport.AddBlock(&spec);
  std::vector<BlockTarget> targets;
  targets.push_back({spec.block, sim::EverActiveOctets(spec), 0.9});

  std::size_t calls = 0;
  AnalyzerConfig config;
  RunCampaign(std::move(targets), transport, 300, config, 1,
              [&](const CampaignProgress& progress) {
                ++calls;
                EXPECT_LE(progress.blocks_done, progress.blocks_total);
              });
  EXPECT_EQ(calls, 1u);
}

TEST(RunCampaign, EmptyTargets) {
  sim::SimTransport transport{1};
  const auto result = RunCampaign({}, transport, 100);
  EXPECT_TRUE(result.analyses.empty());
  EXPECT_EQ(result.counts.probed(), 0);
}

TEST(RunCampaign, TooFewRoundsCountsAsSkipped) {
  const auto spec = MakeSpec(100, 50, 0);
  sim::SimTransport transport{1};
  transport.AddBlock(&spec);
  std::vector<BlockTarget> targets;
  targets.push_back({spec.block, sim::EverActiveOctets(spec), 0.9});
  // 100 rounds < 1 day: cannot be midnight-trimmed to 2 days.
  const auto result = RunCampaign(std::move(targets), transport, 100);
  EXPECT_EQ(result.counts.skipped, 1);
}

}  // namespace
}  // namespace sleepwalk::core
