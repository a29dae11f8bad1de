// SLCK v3 checkpoints (core/checkpoint.h): deterministic encode,
// decode→re-encode byte identity, every single-byte corruption and
// truncation detected, each completed block's estimator state persisted,
// kill/resume byte identity through the zero-copy Env::Map load path,
// saves larger than the columnar writer's staging buffer surviving a
// crash or a short write at every one of their Appends, and a pinned
// digest of one campaign's checkpoint bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/faulty_env.h"
#include "sleepwalk/storage/file.h"
#include "sleepwalk/storage/instrumented_env.h"
#include "sleepwalk/util/failpoint.h"

namespace sleepwalk {
namespace {

constexpr char kPath[] = "/campaign/ck.slck";

sim::SimWorld SmallWorld() {
  sim::WorldConfig config;
  config.total_blocks = 8;
  config.seed = 0xc0ffee;
  return sim::SimWorld::Generate(config);
}

std::vector<core::BlockTarget> TargetsOf(const sim::SimWorld& world) {
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  return targets;
}

core::SupervisorConfig ColumnarConfig(storage::Env& env) {
  core::SupervisorConfig config;
  config.checkpoint_path = kPath;
  config.env = &env;
  return config;
}

core::CampaignOutcome RunOnce(const sim::SimWorld& world,
                              core::SupervisorConfig config,
                              std::int64_t n_rounds = 30) {
  auto transport = world.MakeTransport(3);
  core::ParallelConfig parallel;
  parallel.workers = 1;
  return core::RunParallelCampaign(
      TargetsOf(world),
      [&transport](std::size_t) {
        return std::make_unique<core::PlainShardChain>(*transport);
      },
      n_rounds, config, parallel);
}

std::vector<std::uint8_t> FileBytes(storage::Env& env,
                                    const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const auto error = env.ReadAll(path, bytes);
  EXPECT_TRUE(error.ok()) << error.ToString();
  return bytes;
}

TEST(CheckpointColumnar, DecodeReencodeIsByteIdentical) {
  storage::MemEnv env;
  const auto outcome = RunOnce(SmallWorld(), ColumnarConfig(env));
  ASSERT_GT(outcome.stats.checkpoints_written, 0u);

  const auto bytes = FileBytes(env, kPath);
  core::CheckpointLoadReport report;
  const auto checkpoint = core::DecodeCheckpoint(bytes, &report);
  ASSERT_TRUE(checkpoint.has_value()) << report.detail;
  EXPECT_EQ(report.version, core::kCheckpointVersionColumnar);
  EXPECT_EQ(report.corrupt_sections, 0);
  EXPECT_EQ(report.generation, checkpoint->stats.checkpoints_written);
  EXPECT_EQ(core::EncodeCheckpoint(*checkpoint), bytes);
  EXPECT_EQ(core::EncodeCheckpointAs(*checkpoint,
                                     core::kCheckpointVersionColumnar),
            bytes);
  // No other version is writable.
  EXPECT_THROW(core::EncodeCheckpointAs(*checkpoint, 2),
               std::invalid_argument);

  // Every completed block carries its final estimator state.
  ASSERT_FALSE(checkpoint->completed.empty());
  bool any_rounds = false;
  for (const auto& analysis : checkpoint->completed) {
    any_rounds = any_rounds || analysis.estimator.rounds > 0;
  }
  EXPECT_TRUE(any_rounds) << "estimator columns decoded as defaults";
}

TEST(CheckpointColumnar, EverySingleByteCorruptionIsDetected) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), ColumnarConfig(env));
  const auto bytes = FileBytes(env, kPath);
  ASSERT_FALSE(bytes.empty());

  auto corrupted = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupted[i] = bytes[i] ^ 0xA5;
    core::CheckpointLoadReport report;
    EXPECT_FALSE(core::DecodeCheckpoint(corrupted, &report).has_value())
        << "flip at byte " << i << " went undetected";
    EXPECT_TRUE(report.bad_magic || report.version_refused ||
                report.corrupt_sections > 0)
        << "flip at byte " << i << " reported nothing";
    corrupted[i] = bytes[i];
  }
}

TEST(CheckpointColumnar, EveryTruncationIsDetected) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), ColumnarConfig(env));
  const auto bytes = FileBytes(env, kPath);
  ASSERT_FALSE(bytes.empty());

  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::span<const std::uint8_t> cut{bytes.data(), length};
    EXPECT_FALSE(core::DecodeCheckpoint(cut).has_value())
        << "truncation to " << length << " bytes went undetected";
  }
}

TEST(CheckpointColumnar, KilledCampaignResumesByteIdentically) {
  const auto world = SmallWorld();

  storage::MemEnv clean_env;
  const auto clean = RunOnce(world, ColumnarConfig(clean_env));
  const auto clean_file = FileBytes(clean_env, kPath);

  storage::MemEnv env;
  auto config = ColumnarConfig(env);
  config.stop_after_rounds = 100;
  const auto killed = RunOnce(world, config);
  EXPECT_TRUE(killed.stopped_early);

  config.stop_after_rounds = 0;
  const auto resumed = RunOnce(world, config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.stopped_early);

  ASSERT_EQ(resumed.result.analyses.size(), clean.result.analyses.size());

  // The kill lands on a block commit, whose checkpoint the uninterrupted
  // timeline writes too, so the final file is byte-identical as is —
  // generation header and checkpoints_written included.
  EXPECT_EQ(FileBytes(env, kPath), clean_file);

  // The in-memory estimator states converge too, bit for bit: blocks
  // finished before the kill came back through the checkpoint's
  // estimator columns, not defaults.
  for (std::size_t i = 0; i < clean.result.analyses.size(); ++i) {
    SCOPED_TRACE("block " + std::to_string(i));
    const auto& want = clean.result.analyses[i].estimator;
    const auto& got = resumed.result.analyses[i].estimator;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p_short),
              std::bit_cast<std::uint64_t>(want.p_short));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.t_short),
              std::bit_cast<std::uint64_t>(want.t_short));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p_long),
              std::bit_cast<std::uint64_t>(want.p_long));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.t_long),
              std::bit_cast<std::uint64_t>(want.t_long));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deviation),
              std::bit_cast<std::uint64_t>(want.deviation));
    EXPECT_EQ(got.rounds, want.rounds);
  }
}

TEST(CheckpointColumnar, LoadGoesThroughTheMapSeam) {
  storage::MemEnv mem;
  obs::Registry registry;
  obs::Context context;
  context.metrics = &registry;
  storage::InstrumentedEnv env{mem, context};
  auto config = ColumnarConfig(env);
  config.stop_after_rounds = 100;
  RunOnce(SmallWorld(), config);

  const auto* maps = registry.counter("storage_maps_total");
  ASSERT_NE(maps, nullptr);
  const double maps_before = maps->value();
  config.stop_after_rounds = 0;
  const auto resumed = RunOnce(SmallWorld(), config);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GT(maps->value(), maps_before)
      << "checkpoint resume no longer uses the zero-copy Map path";
}


// A campaign whose later checkpoints are larger than the columnar
// writer's staging buffer (storage::kColumnarStageBytes), so each of
// those saves streams through several Appends.
constexpr std::int64_t kLargeRounds = 4400;

sim::SimWorld LargeWorld() {
  sim::WorldConfig config;
  config.total_blocks = 40;
  config.seed = 0x1a7e;
  return sim::SimWorld::Generate(config);
}

core::SupervisorConfig LargeConfig(storage::Env& env) {
  auto config = ColumnarConfig(env);
  config.checkpoint_every_blocks = 10;
  config.checkpoint_keep = 100;  // every generation stays, for comparison
  return config;
}

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<std::uint8_t> DatasetBytesOf(const core::CampaignOutcome& outcome) {
  return core::EncodeDatasetColumnar(outcome.result.analyses);
}

// For every Append of every save that takes more than one, a crash and
// a short write there must leave the previous primary checkpoint intact,
// and the campaign restarted on the same disk must converge on the
// uninterrupted run's checkpoint and dataset bytes.
TEST(CheckpointColumnar, StagedSaveSurvivesAFailureAtEveryAppend) {
  const auto world = LargeWorld();

  // Uninterrupted run through an inert failpoint set: after each save,
  // note the Append ordinal reached and the rounds processed.
  util::FailpointSet counter;
  storage::MemEnv clean;
  storage::FaultyEnv counted{clean, counter};
  auto clean_config = LargeConfig(counted);
  std::vector<std::uint64_t> appends_after{0};
  std::vector<std::int64_t> rounds_after{0};
  clean_config.progress = [&](const core::CampaignProgress& progress) {
    if (progress.rounds_to_checkpoint != 0) return;
    appends_after.push_back(counter.hits("storage.append"));
    rounds_after.push_back(progress.rounds_done);
  };
  const auto baseline = RunOnce(world, clean_config, kLargeRounds);
  const auto want_checkpoint = FileBytes(clean, kPath);
  const auto want_dataset = DatasetBytesOf(baseline);
  ASSERT_GT(want_checkpoint.size(), storage::kColumnarStageBytes);

  std::size_t staged_saves = 0;
  for (std::size_t save = 1; save < appends_after.size(); ++save) {
    const std::uint64_t first = appends_after[save - 1] + 1;
    const std::uint64_t last = appends_after[save];
    if (last == first) continue;  // one Append: the crash sweep's ground
    ++staged_saves;
    std::optional<std::vector<std::uint8_t>> previous;
    if (save > 1) {
      previous = FileBytes(clean, std::string{kPath} + ".g" +
                                      std::to_string(save - 1));
    }
    for (std::uint64_t k = first; k <= last; ++k) {
      for (const char* action : {"crash", "short"}) {
        SCOPED_TRACE(std::string{action} + " at Append " + std::to_string(k) +
                     " (save " + std::to_string(save) + ")");
        util::FailpointSet failpoints;
        ASSERT_TRUE(util::FailpointSet::Parse(
            "storage.append=" + std::string{action} + "@" + std::to_string(k),
            failpoints));
        storage::MemEnv disk;
        storage::FaultyEnv env{disk, failpoints};
        auto config = LargeConfig(env);
        const bool crash = std::string{action} == "crash";
        // A failed save is logged and the campaign goes on; stop right
        // after it so the disk shows what the failure left behind.
        if (!crash) config.stop_after_rounds = rounds_after[save];
        bool crashed = false;
        try {
          RunOnce(world, config, kLargeRounds);
        } catch (const util::CrashInjected&) {
          crashed = true;
        }
        EXPECT_EQ(crashed, crash);
        if (previous) {
          EXPECT_EQ(FileBytes(disk, kPath), *previous)
              << "the previous primary checkpoint did not survive";
        } else {
          EXPECT_FALSE(disk.Exists(kPath));
        }
        if (!crash) {
          EXPECT_FALSE(disk.Exists(std::string{kPath} + ".tmp"));
        }

        failpoints.Reset();
        config.stop_after_rounds = 0;
        const auto resumed = RunOnce(world, config, kLargeRounds);
        EXPECT_EQ(resumed.resumed, previous.has_value());
        EXPECT_EQ(FileBytes(disk, kPath), want_checkpoint)
            << "primary checkpoint diverged after restart";
        EXPECT_EQ(DatasetBytesOf(resumed), want_dataset)
            << "dataset diverged after restart";
      }
    }
  }
  EXPECT_GE(staged_saves, 2u);
}

// FNV-1a of the large campaign's final checkpoint, recorded from the
// bytes written before checkpoint saves streamed from borrowed memory
// (when every save was one Append of a contiguous image). Same bytes is
// the contract: a moved digest is a format change to explain, not a
// constant to re-pin.
constexpr std::uint64_t kLargeCheckpointDigest = 0x0b1d9403248a6e79ULL;

TEST(CheckpointColumnar, LargeCheckpointBytesArePinned) {
  storage::MemEnv env;
  const auto outcome = RunOnce(LargeWorld(), LargeConfig(env), kLargeRounds);
  const auto bytes = FileBytes(env, kPath);
  ASSERT_GT(bytes.size(), storage::kColumnarStageBytes);
  EXPECT_EQ(Fnv1a(bytes), kLargeCheckpointDigest)
      << std::hex << "0x" << Fnv1a(bytes) << " over " << std::dec
      << bytes.size() << " bytes";
  const auto checkpoint = core::DecodeCheckpoint(bytes);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(core::EncodeCheckpoint(*checkpoint), bytes);
  EXPECT_FALSE(outcome.stopped_early);

  // The pin covers an unprobed block's row, whose estimator columns hold
  // the seeded prior (initial deviation included), not zeros.
  std::size_t unprobed = 0;
  for (const auto& analysis : checkpoint->completed) {
    if (analysis.probed) continue;
    ++unprobed;
    EXPECT_EQ(analysis.estimator.deviation,
              core::AvailabilityConfig{}.initial_deviation);
    EXPECT_EQ(analysis.estimator.rounds, 0);
  }
  EXPECT_GE(unprobed, 1u);
}

}  // namespace
}  // namespace sleepwalk
