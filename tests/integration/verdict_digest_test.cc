// Population-level verdict pins: an FNV-1a digest over every block's
// (classification, daily_bin, strongest_bin) for two fixed-seed runs
// that between them drive both spectral paths of fft::Plan:
//   * a 14-day campaign over more than 2,000 probed blocks, whose
//     midnight-trimmed series are 1833 samples long (odd, so every
//     block takes the complex Bluestein convolution at m = 4096);
//   * the re-analysis of a 35-day SLPW dataset of 4582-sample series
//     (even, so every block takes the packed real-input path: a
//     2291-point Bluestein transform at m = 8192 plus the unpack).
// The constants were recorded before the power-of-two kernel was
// rewritten. A moved digest means some verdict flipped: that is a
// behaviour change to explain, not a constant to re-pin.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/survey.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk {
namespace {

constexpr std::uint64_t kCampaignVerdictDigest = 0x91956933e95c94a9ULL;
constexpr std::uint64_t kReanalysisVerdictDigest = 0x7edb98f061a6fbb4ULL;

class VerdictDigest {
 public:
  void Add(const core::DiurnalResult& verdict) {
    Mix(static_cast<std::uint64_t>(verdict.classification));
    Mix(verdict.daily_bin);
    Mix(verdict.strongest_bin);
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::vector<core::BlockTarget> TargetsOf(const sim::SimWorld& world) {
  std::vector<core::BlockTarget> targets;
  targets.reserve(world.blocks().size());
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  return targets;
}

/// One SimTransport per worker, all over the same world and site seed.
class SimChain final : public core::ShardChain {
 public:
  explicit SimChain(const sim::SimWorld& world)
      : transport_(world.MakeTransport(0x5eed)) {}
  net::Transport& transport() override { return *transport_; }

 private:
  std::unique_ptr<sim::SimTransport> transport_;
};

TEST(VerdictDigest, FourteenDayCampaignOnTheBluesteinPath) {
  sim::WorldConfig world_config;
  world_config.total_blocks = 2200;
  world_config.seed = 1401;
  world_config.duration_days = 14;
  const auto world = sim::SimWorld::Generate(world_config);

  core::SupervisorConfig config;
  const probing::RoundScheduler scheduler{config.analyzer.schedule};
  core::ParallelConfig parallel;
  parallel.workers = 4;
  const auto outcome = core::RunParallelCampaign(
      TargetsOf(world),
      [&world](std::size_t) { return std::make_unique<SimChain>(world); },
      scheduler.RoundsForDays(14), config, parallel);

  VerdictDigest digest;
  std::size_t probed = 0;
  std::size_t bluestein_1833 = 0;
  for (const auto& analysis : outcome.result.analyses) {
    digest.Add(analysis.diurnal);
    if (!analysis.probed) continue;
    ++probed;
    if (analysis.short_series.size() == 1833) ++bluestein_1833;
  }
  EXPECT_GE(probed, 2000u);
  EXPECT_GT(bluestein_1833, probed / 2);
  EXPECT_GT(outcome.result.counts.strict, 0);
  EXPECT_GT(outcome.result.counts.non_diurnal, 0);
  EXPECT_EQ(digest.value(), kCampaignVerdictDigest)
      << std::hex << "0x" << digest.value();
}

TEST(VerdictDigest, ThirtyFiveDayReanalysisOnTheEvenRealPath) {
  constexpr std::size_t kSamples = 4582;  // 35 days of 660 s rounds
  sim::WorldConfig world_config;
  world_config.total_blocks = 250;
  world_config.seed = 3501;
  const auto world = sim::SimWorld::Generate(world_config);

  // Each stored series is the block's exact expected availability plus
  // seeded Gaussian observation noise, so spectra carry realistic
  // near-ties instead of clean lines.
  const core::AnalyzerConfig config;
  const probing::RoundScheduler scheduler{config.schedule};
  std::vector<core::BlockAnalysis> stored;
  stored.reserve(world.blocks().size());
  for (std::size_t i = 0; i < world.blocks().size(); ++i) {
    const auto& spec = world.blocks()[i].spec;
    core::BlockAnalysis analysis;
    analysis.block = spec.block;
    analysis.ever_active = spec.EverActiveCount();
    analysis.probed = analysis.ever_active >= config.min_ever_active;
    if (analysis.probed) {
      analysis.short_series.values =
          sim::TrueAvailabilitySeries(spec, scheduler, kSamples);
      auto rng = Rng::ForStream(3501, i, 0x6e6f697365ULL);
      for (auto& value : analysis.short_series.values) {
        value += 0.05 * rng.NextGaussian();
      }
    }
    stored.push_back(std::move(analysis));
  }
  const auto dataset =
      core::DecodeDataset(core::EncodeDatasetColumnar(stored));
  ASSERT_TRUE(dataset.has_value());

  const auto analyses = core::ReanalyzeDataset(*dataset, config, 4);
  VerdictDigest digest;
  std::size_t analyzed = 0;
  std::size_t strict = 0;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    digest.Add(analyses[i].diurnal);
    if (dataset->blocks[i].series.size() == kSamples) ++analyzed;
    if (analyses[i].diurnal.IsStrict()) ++strict;
  }
  EXPECT_GT(analyzed, 200u);
  EXPECT_GT(strict, 0u);
  EXPECT_LT(strict, analyzed);
  EXPECT_EQ(digest.value(), kReanalysisVerdictDigest)
      << std::hex << "0x" << digest.value();
}

}  // namespace
}  // namespace sleepwalk
