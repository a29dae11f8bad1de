// Checkpoint recovery: the CheckpointStore must self-heal from retained
// generations, and mixed-version splices and retired-format files (SLCK
// v1, and v2 from a fixture frozen from the last v2 writer) must be
// refused. Byte-level corruption and truncation of the v3 file itself
// is swept in checkpoint_columnar_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fixture.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/storage/bytes.h"
#include "sleepwalk/storage/columnar.h"
#include "sleepwalk/storage/file.h"

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

core::SupervisorConfig ConfigFor(storage::Env& env, int keep = 3) {
  core::SupervisorConfig config;
  config.checkpoint_path = kPath;
  config.checkpoint_keep = keep;
  config.env = &env;
  return config;
}

core::CampaignOutcome RunOnce(const sim::SimWorld& world, storage::Env& env,
                              int keep = 3) {
  auto transport = world.MakeTransport(3);
  core::ParallelConfig parallel;
  parallel.workers = 1;
  return core::RunParallelCampaign(
      TargetsOf(world),
      [&transport](std::size_t) {
        return std::make_unique<core::PlainShardChain>(*transport);
      },
      30, ConfigFor(env, keep), parallel);
}

std::vector<std::uint8_t> FileBytes(storage::Env& env,
                                    const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const auto error = env.ReadAll(path, bytes);
  EXPECT_TRUE(error.ok()) << error.ToString();
  return bytes;
}

/// Retained generation files (names) under the campaign directory.
std::vector<std::string> GenerationFiles(storage::Env& env) {
  std::vector<std::string> names;
  for (const auto& name : env.List("/campaign")) {
    if (name.find(".slck.g") != std::string::npos) names.push_back(name);
  }
  return names;
}

void PatchU32(std::vector<std::uint8_t>& bytes, std::size_t offset,
              std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

TEST(CheckpointRobustness, MixedVersionMetaPayloadIsRefused) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), env);
  const auto file = FileBytes(env, kPath);

  // Splice: re-frame the container with the META column's format
  // version rewritten to 2 (the writer recomputes every CRC), so only
  // the version check can object.
  storage::ColumnarReader reader;
  ASSERT_TRUE(reader.Parse(file, "SLCK").ok());
  storage::ColumnarWriter writer{"SLCK", reader.kind(), reader.fingerprint(),
                                 reader.generation()};
  std::vector<std::uint8_t> meta;
  for (const auto& column : reader.columns()) {
    std::span<const std::uint8_t> bytes = column.bytes;
    if (column.id == 1) {  // META
      meta.assign(bytes.begin(), bytes.end());
      PatchU32(meta, 0, 2);
      bytes = meta;
    }
    writer.AddBorrowed(column.id, column.elem_width, bytes);
  }
  const auto spliced = writer.Finish();

  core::CheckpointLoadReport report;
  EXPECT_FALSE(core::DecodeCheckpoint(spliced, &report).has_value());
  EXPECT_EQ(report.version, core::kCheckpointVersionColumnar);
  EXPECT_TRUE(report.version_refused);
  EXPECT_FALSE(report.bad_magic);
}

TEST(CheckpointRobustness, CorruptPrimaryHealsFromNewestGeneration) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  const auto baseline = RunOnce(world, env);
  ASSERT_FALSE(baseline.resumed);

  // Damage the primary file; the newest retained generation holds the
  // same (final) checkpoint, so the resume is still idempotent.
  auto bytes = FileBytes(env, kPath);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(storage::AtomicWrite(env, kPath, bytes).ok());

  const auto healed = RunOnce(world, env);
  EXPECT_TRUE(healed.resumed);
  EXPECT_EQ(healed.recovery.recoveries, 1u);
  EXPECT_EQ(healed.recovery.generations_discarded, 1u);
  EXPECT_GE(healed.recovery.corrupt_sections, 1u);
  // The damaged file was quarantined for post-mortem.
  EXPECT_TRUE(env.Exists(std::string{kPath} + ".corrupt"));
  ASSERT_EQ(healed.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              healed.result.analyses[i].short_series.values);
  }
}

TEST(CheckpointRobustness, WalksGenerationsNewestFirstPastMultipleCorrupt) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  const auto baseline = RunOnce(world, env);

  // Damage the primary AND the newest generation: recovery must land on
  // the second-newest, which is one block short of final — the resumed
  // campaign redoes that block and still matches the baseline.
  auto generations = GenerationFiles(env);
  ASSERT_GE(generations.size(), 2u);
  const std::string newest = "/campaign/" + generations.back();
  for (const auto& victim : {std::string{kPath}, newest}) {
    auto bytes = FileBytes(env, victim);
    bytes[bytes.size() - 1] ^= 0x80;
    ASSERT_TRUE(storage::AtomicWrite(env, victim, bytes).ok());
  }

  const auto healed = RunOnce(world, env);
  EXPECT_TRUE(healed.resumed);
  EXPECT_EQ(healed.recovery.recoveries, 1u);
  EXPECT_EQ(healed.recovery.generations_discarded, 2u);
  ASSERT_EQ(healed.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              healed.result.analyses[i].short_series.values);
  }
}

TEST(CheckpointRobustness, AllCopiesCorruptMeansFreshStart) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  const auto baseline = RunOnce(world, env);

  std::vector<std::string> victims{kPath};
  for (const auto& name : GenerationFiles(env)) {
    victims.push_back("/campaign/" + name);
  }
  for (const auto& victim : victims) {
    auto bytes = FileBytes(env, victim);
    bytes[10] ^= 0xFF;
    ASSERT_TRUE(storage::AtomicWrite(env, victim, bytes).ok());
  }

  const auto fresh = RunOnce(world, env);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.recovery.recoveries, 0u);
  EXPECT_EQ(fresh.recovery.generations_discarded, victims.size());
  ASSERT_EQ(fresh.result.analyses.size(), baseline.result.analyses.size());
  for (std::size_t i = 0; i < baseline.result.analyses.size(); ++i) {
    EXPECT_EQ(baseline.result.analyses[i].short_series.values,
              fresh.result.analyses[i].short_series.values);
  }
}

TEST(CheckpointRobustness, KeepKRetainsExactlyTheNewestGenerations) {
  storage::MemEnv env;
  const auto outcome = RunOnce(SmallWorld(), env, /*keep=*/3);
  const auto written = outcome.stats.checkpoints_written;
  ASSERT_GT(written, 3u);

  const auto generations = GenerationFiles(env);
  ASSERT_EQ(generations.size(), 3u);
  // Exactly generations written-2 .. written survive the pruning, and
  // each one still decodes.
  for (std::uint64_t gen = written - 2; gen <= written; ++gen) {
    const std::string path =
        std::string{kPath} + ".g" + std::to_string(gen);
    ASSERT_TRUE(env.Exists(path)) << path;
    EXPECT_TRUE(core::ReadCheckpoint(env, path).has_value()) << path;
  }
}

TEST(CheckpointRobustness, KeepOneDisablesRotation) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), env, /*keep=*/1);
  EXPECT_TRUE(env.Exists(kPath));
  EXPECT_TRUE(GenerationFiles(env).empty());
}

TEST(CheckpointRobustness, MissingPrimaryDiscardsStaleGenerations) {
  storage::MemEnv env;
  const auto world = SmallWorld();
  RunOnce(world, env);
  ASSERT_FALSE(GenerationFiles(env).empty());

  // Deleting the primary declares the campaign fresh; stale generations
  // must not resurrect it behind the caller's back.
  ASSERT_TRUE(env.Remove(kPath).ok());
  const auto fresh = RunOnce(world, env);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.recovery.recoveries, 0u);
}

TEST(CheckpointRobustness, FingerprintMismatchIsSilentlySkipped) {
  storage::MemEnv env;
  RunOnce(SmallWorld(), env);
  core::CheckpointStore store{env, kPath, 3};
  core::RecoveryEvents events;
  EXPECT_FALSE(store.Load(0xdeadbeef, events).has_value());
  EXPECT_EQ(events.recoveries, 0u);
  EXPECT_EQ(events.generations_discarded, 0u);
  // The intact-but-foreign file was not quarantined.
  EXPECT_TRUE(env.Exists(kPath));
  EXPECT_FALSE(env.Exists(std::string{kPath} + ".corrupt"));
}

/// A well-formed SLCK v1 file (the unframed, checksum-free stream
/// format).
std::vector<std::uint8_t> V1Checkpoint() {
  storage::ByteWriter out;
  const char magic[4] = {'S', 'L', 'C', 'K'};
  out.PutBytes(std::span{reinterpret_cast<const std::uint8_t*>(magic), 4});
  out.Put(std::uint32_t{1});        // version
  out.Put(std::uint64_t{0xfeed});   // fingerprint
  out.Put(std::int64_t{3});         // counts.strict
  out.Put(std::int64_t{1});         // counts.relaxed
  out.Put(std::int64_t{2});         // counts.non_diurnal
  out.Put(std::int64_t{0});         // counts.skipped
  for (int i = 0; i < 10; ++i) {
    out.Put(std::uint64_t{0});      // probes.*, rounds_*, retries
  }
  out.Put(double{0.0});             // backoff_seconds
  out.Put(std::uint64_t{0});        // forced_restarts
  out.Put(std::uint64_t{0});        // quarantined_blocks
  out.Put(std::uint64_t{7});        // checkpoints_written
  out.Put(std::uint8_t{1});         // resumed flag (v1 persisted it)
  out.Put(std::uint64_t{0});        // completed count
  out.Put(std::uint64_t{0});        // quarantined count
  out.Put(std::uint64_t{6});        // next_block
  out.Put(std::uint8_t{0});         // has_inflight
  out.Put(std::uint64_t{0});        // transport bytes
  return out.Take();
}

TEST(CheckpointRobustness, V1FilesAreRefused) {
  // Retired formats: SLCK v1 and v2 (the latter a fixture frozen from
  // the last v2 writer, fingerprint 0xfeed, generation 7). Their
  // decoders are gone: the version check must refuse each up front, not
  // hand its bytes to the v3 parser.
  const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
      retired = {{1, V1Checkpoint()},
                 {2, testing_fixture::ReadFixture("checkpoint_v2.slck")}};
  for (const auto& [version, bytes] : retired) {
    SCOPED_TRACE("SLCK v" + std::to_string(version));
    core::CheckpointLoadReport report;
    EXPECT_FALSE(core::DecodeCheckpoint(bytes, &report).has_value());
    EXPECT_FALSE(report.bad_magic);
    EXPECT_EQ(report.version, version);
    EXPECT_TRUE(report.version_refused);
    EXPECT_EQ(report.corrupt_sections, 0);
    EXPECT_EQ(report.generation, 0u) << "retired header fields were parsed";

    // Through the store the refused file is quarantined like any other
    // unreadable candidate, and the campaign starts fresh.
    storage::MemEnv env;
    ASSERT_TRUE(storage::AtomicWrite(env, kPath, bytes).ok());
    core::CheckpointStore store{env, kPath, 3};
    core::RecoveryEvents events;
    EXPECT_FALSE(store.Load(0xfeed, events).has_value());
    EXPECT_EQ(events.generations_discarded, 1u);
    EXPECT_TRUE(env.Exists(std::string{kPath} + ".corrupt"));
  }
}

}  // namespace
}  // namespace sleepwalk
