// Workload `store_campaign`: the paper-scale columnar engine.
//
// The timed phase is RunStoreCampaign over 25,000 blocks x 4096 rounds
// with 400-slot series rings, the classify sweep on, an SLCK v3
// snapshot every 1,024 rounds (4 snapshots) and 4 workers; its inputs
// are the library's seed-keyed synthetic observations. The traced run
// replays the same segment loop through the public BlockStore calls
// and must reach the same digest.
#include <algorithm>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "bench.h"
#include "counting_env.h"
#include "sleepwalk/core/block_store.h"
#include "sleepwalk/core/store_analyzer.h"
#include "sleepwalk/core/store_campaign.h"
#include "sleepwalk/util/rng.h"
#include "trace.h"

namespace perfbench {

namespace core = sleepwalk::core;
namespace storage = sleepwalk::storage;

namespace {

constexpr std::size_t kBlocks = 25000;
constexpr std::int64_t kRounds = 4096;
constexpr std::int32_t kSeriesCapacity = 400;
constexpr std::int64_t kSnapshotEvery = 1024;
constexpr int kWorkers = 4;
constexpr std::uint64_t kStoreTag = 0x73746f7265ULL;

core::StoreCampaignConfig Config(const Options& options, CountingEnv& env,
                                 const std::string& path) {
  core::StoreCampaignConfig config;
  config.n_blocks = Scaled(kBlocks, options.scale, 64);
  config.n_rounds = kRounds;
  config.seed = sleepwalk::MixHash(options.seed, kStoreTag);
  config.workers = std::min(kWorkers, AvailableCpus());
  config.checkpoint_path = path;
  config.checkpoint_every_rounds = kSnapshotEvery;
  config.env = &env;
  config.series_capacity = kSeriesCapacity;
  config.classify = true;
  return config;
}

/// Bytes of every column the store holds (its arena, less padding).
double ArenaBytes(const core::BlockStore& store) {
  double bytes = 0.0;
  const auto add = [&](auto span) {
    bytes += static_cast<double>(span.size_bytes());
  };
  add(store.prefix_index());
  add(store.p_short());
  add(store.t_short());
  add(store.p_long());
  add(store.t_long());
  add(store.deviation());
  add(store.rounds());
  add(store.probes());
  add(store.positives());
  add(store.down_rounds());
  add(store.flags());
  add(store.classification());
  add(store.ever_active());
  add(store.observed_days());
  add(store.mean_short());
  add(store.final_operational());
  add(store.mean_probes_per_round());
  add(store.series_values());
  add(store.series_rounds());
  add(store.series_len());
  add(store.series_head());
  return bytes;
}

/// Decodes the snapshot at `path` (mapped through `env`) and returns its
/// digest; false when it does not decode.
bool DecodeDigest(CountingEnv& env, const std::string& path,
                  const core::StoreCampaignConfig& config,
                  std::uint64_t& digest, std::uint64_t& rounds_done,
                  std::string& error) {
  storage::MappedRegion region;
  if (auto map_error = env.Map(path, region); !map_error.ok()) {
    error = map_error.ToString();
    return false;
  }
  core::BlockStore decoded;
  std::uint64_t written = 0;
  const auto decode_error = decoded.DecodeSnapshot(
      region.bytes(), core::StoreCampaignFingerprint(config), rounds_done,
      written, path);
  if (!decode_error.ok()) {
    error = decode_error.ToString();
    return false;
  }
  digest = decoded.Digest();
  return true;
}

/// One worker's share of a segment, as RunStoreCampaign's worker does it.
void ReplayWorker(core::BlockStore& store, const core::StoreCampaignConfig& config,
                  std::size_t begin, std::size_t end, std::int64_t first,
                  std::int64_t last) {
  std::vector<core::RoundSample> samples(end - begin);
  const auto prefixes = store.prefix_index();
  for (std::int64_t round = first; round < last; ++round) {
    {
      const ScopedSpan span{"core.block_store.sample"};
      for (std::size_t i = begin; i < end; ++i) {
        samples[i - begin] =
            core::SyntheticRoundSample(config.seed, prefixes[i], round);
      }
    }
    {
      const ScopedSpan span{"core.block_store.observe"};
      store.ObserveRound(begin, end, samples);
    }
    {
      const ScopedSpan span{"core.block_store.series"};
      store.RecordSeriesRound(begin, end, round);
    }
  }
}

struct ReplayOutcome {
  double wall_s = 0.0;
  std::uint64_t digest = 0;          ///< the replayed store's
  std::uint64_t decoded_digest = 0;  ///< its final snapshot's
  std::uint64_t snapshot_bytes = 0;
  bool ok = true;
  std::string error;
};

/// The store campaign's segment loop through public calls. `tracer`
/// null = untraced.
ReplayOutcome Replay(const core::StoreCampaignConfig& config, CountingEnv& env,
                     const std::string& path, Tracer* tracer) {
  ReplayOutcome out;
  const double start = MonoSeconds();
  const std::size_t n = config.n_blocks;
  core::BlockStore store;
  {
    const ScopedSpan span{"core.block_store.seed"};
    store.Reset(n, config.availability, config.series_capacity);
    for (std::size_t i = 0; i < n; ++i) {
      const auto prefix = static_cast<std::uint32_t>(i);
      store.SeedBlock(i, prefix,
                      core::SyntheticInitialAvailability(config.seed, prefix));
      store.SetEverActive(i, core::SyntheticEverActive(config.seed, prefix));
    }
  }
  const std::uint64_t fingerprint = core::StoreCampaignFingerprint(config);
  const auto workers = static_cast<std::size_t>(std::max(1, config.workers));
  const std::size_t chunk = (n + workers - 1) / workers;
  std::int64_t rounds_done = 0;
  std::uint64_t snapshots = 0;
  while (rounds_done < config.n_rounds) {
    const std::int64_t last =
        std::min(config.n_rounds, rounds_done + config.checkpoint_every_rounds);
    {
      const ScopedSpan segment{"segment"};
      const std::uint64_t parent = segment.id();
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t begin = std::min(n, w * chunk);
        const std::size_t end = std::min(n, begin + chunk);
        if (begin >= end) break;
        ThreadTrace* trace =
            tracer != nullptr ? &tracer->NewThread(parent) : nullptr;
        pool.emplace_back([&store, &config, trace, begin, end, rounds_done,
                           last] {
          const BindTrace bind{trace};
          ReplayWorker(store, config, begin, end, rounds_done, last);
        });
      }
      for (auto& thread : pool) thread.join();
    }
    rounds_done = last;
    if (rounds_done >= config.n_rounds) {
      const ScopedSpan span{"core.store_analyzer.classify"};
      core::AnalyzeStore(store, config.analyzer, config.workers);
    }
    // The span also covers releasing the intermediate image.
    const ScopedSpan span{"core.block_store.snapshot_encode"};
    ++snapshots;
    const auto image = store.EncodeSnapshot(fingerprint, rounds_done, snapshots);
    out.snapshot_bytes += image.size();
    if (auto error = storage::AtomicWrite(env, path, image); !error.ok()) {
      out.ok = false;
      out.error = error.ToString();
    }
  }
  out.digest = store.Digest();
  {
    const ScopedSpan span{"core.block_store.snapshot_decode"};
    std::uint64_t decoded_rounds = 0;
    std::string error;
    if (!DecodeDigest(env, path, config, out.decoded_digest, decoded_rounds,
                      error)) {
      out.ok = false;
      out.error = error;
    }
  }
  out.wall_s = MonoSeconds() - start;
  return out;
}

void Trace(const Options& options, const core::StoreCampaignConfig& config,
           CountingEnv& env, std::uint64_t digest, const IoSnapshot& io,
           double rss_over_arena, Result& result) {
  const std::string path = options.dir + "/replay-" + kSnapshotFile;
  const ReplayOutcome plain = Replay(config, env, path, nullptr);

  Tracer tracer;
  const std::uint64_t origin = MonoNs();
  ThreadTrace& main_trace = tracer.NewThread(0);
  ReplayOutcome traced;
  std::uint64_t root = 0;
  {
    const BindTrace bind{&main_trace};
    const ScopedSpan span{"replay"};
    root = span.id();
    traced = Replay(config, env, path, &tracer);
  }
  for (const ReplayOutcome& replay : {std::cref(plain), std::cref(traced)}) {
    result.AddCheck("replay digest equals RunStoreCampaign's",
                    replay.ok && replay.digest == digest &&
                        replay.decoded_digest == digest,
                    replay.error);
  }
  const auto spans = tracer.Collect();
  const Attribution ledger = Attribute(spans, root);
  std::string trace_error;
  result.AddCheck("trace artifact written",
                  WriteChromeTrace(options.trace_path, spans, origin,
                                   trace_error),
                  trace_error);
  result.AddCheck("layer self times cover >= 90% of the replay",
                  ledger.coverage() >= 0.9,
                  "coverage " + std::to_string(ledger.coverage()));

  result.AddLayer("core.block_store.seed_s", ledger.Self("core.block_store.seed"),
                  "s");
  result.AddLayer("core.block_store.sample_s",
                  ledger.Self("core.block_store.sample"), "s");
  result.AddLayer("core.block_store.observe_s",
                  ledger.Self("core.block_store.observe"), "s");
  result.AddLayer("core.block_store.series_s",
                  ledger.Self("core.block_store.series"), "s");
  result.AddLayer("core.block_store.snapshot_encode_s",
                  ledger.Self("core.block_store.snapshot_encode"), "s");
  result.AddLayer("core.block_store.snapshot_decode_s",
                  ledger.Self("core.block_store.snapshot_decode"), "s");
  result.AddLayer("core.block_store.snapshot_bytes",
                  static_cast<double>(traced.snapshot_bytes), "B");
  result.AddLayer("core.block_store.rss_over_arena", rss_over_arena, "ratio");
  result.AddLayer("core.store_analyzer.classify_s",
                  ledger.Self("core.store_analyzer.classify"), "s");
  AddStorageLayers(io, result);
  result.AddLayer("trace.unattributed_s", ledger.unattributed_s, "s");
  result.AddLayer("trace.coverage", ledger.coverage(), "ratio");
  result.AddLayer("trace.overhead_s", traced.wall_s - plain.wall_s, "s");
}

}  // namespace

void RunStoreCampaign(const Options& options, Result& result) {
  CountingEnv env{storage::RealEnvInstance()};
  const std::string path = options.dir + "/" + kSnapshotFile;
  const auto config = Config(options, env, path);
  const std::size_t n = config.n_blocks;

  // Timed phase: the whole store campaign.
  core::BlockStore store;
  const IoSnapshot io_before = env.Snapshot();
  TimedPhase phase{result};
  const auto outcome = core::RunStoreCampaign(store, config);
  phase.Stop();
  const IoSnapshot io = env.Snapshot().Since(io_before);
  result.storage_bytes = io.bytes_moved();
  result.info.emplace_back("storage_busy_s", io.busy_seconds());
  result.attempted = n;

  const bool storage_ok = outcome.error.empty() && io.errors == 0;
  result.AddCheck("every storage call succeeded", storage_ok,
                  outcome.error.empty() ? env.first_error() : outcome.error);
  const bool complete = outcome.rounds_done == config.n_rounds &&
                        !outcome.stopped_early && !outcome.resumed &&
                        store.size() == n;
  result.AddCheck("campaign ran every round", complete);

  if (options.inject == "corrupt-snapshot") {
    auto& real = storage::RealEnvInstance();
    std::vector<std::uint8_t> bytes;
    if (real.ReadAll(path, bytes).ok() && !bytes.empty()) {
      bytes[bytes.size() / 2] ^= 0x01;
      static_cast<void>(storage::AtomicWrite(real, path, bytes));
    }
  }
  // The final snapshot decodes to the run's digest.
  std::uint64_t digest = 0;
  std::uint64_t rounds_done = 0;
  std::string error;
  const bool decodes =
      DecodeDigest(env, path, config, digest, rounds_done, error) &&
      digest == outcome.digest &&
      rounds_done == static_cast<std::uint64_t>(config.n_rounds);
  result.AddCheck("final snapshot decodes to the run's digest", decodes, error);

  if (complete) result.blocks = n;
  if (!storage_ok || !complete || !decodes) result.failed = n;
  result.info.emplace_back("classified",
                           static_cast<double>(outcome.analyze.classified));
  result.info.emplace_back("diurnal", static_cast<double>(outcome.analyze.diurnal));

  if (!options.trace_path.empty()) {
    const double rss_over_arena =
        result.peak_rss_mb * 1024.0 * 1024.0 / ArenaBytes(store);
    store = core::BlockStore{};
    Trace(options, config, env, outcome.digest, io, rss_over_arena, result);
  }
}

}  // namespace perfbench
