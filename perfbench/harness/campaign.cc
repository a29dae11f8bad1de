// Workload `campaign`: the production `measure` path.
//
// Set-up generates a SimWorld from the seed (8,000 blocks at full
// scale). The timed phase is RunParallelCampaign over it for 14 days
// (3 workers plus the calling thread as coordinator, an SLCK v3
// checkpoint every eighth of the blocks) followed by the SLPW v3
// dataset write, all through the real storage::Env under the counting
// decorator. The traced run repeats the campaign with timing
// decorators, then replays a seeded sample of blocks on one thread with
// a span around every public call.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numbers>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "counting_env.h"
#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/util/rng.h"
#include "stages.h"
#include "trace.h"

namespace perfbench {

namespace core = sleepwalk::core;
namespace net = sleepwalk::net;
namespace sim = sleepwalk::sim;
namespace storage = sleepwalk::storage;

namespace {

constexpr std::size_t kBlocks = 8000;
constexpr int kDays = 14;
constexpr std::size_t kCheckpointsPerCampaign = 8;
constexpr int kWorkers = 3;  // plus the calling thread as coordinator
constexpr std::uint64_t kSite = 1;
/// Replay sample: about one block in this many.
constexpr std::uint64_t kReplayEvery = 128;
constexpr std::uint64_t kReplayTag = 0x7265706c6179ULL;
constexpr double kPhaseTolerance = 1e-5;
constexpr double kTieTolerance = 1e-6;
/// Confirmed f32 bin ties allowed: one block in this many (at least one).
constexpr std::size_t kBlocksPerAllowedTie = 1000;

/// Probe counts and busy time of one worker's timing decorator.
struct alignas(64) ProbeTally {
  std::uint64_t calls = 0;
  std::uint64_t positives = 0;
  std::uint64_t ns = 0;
};

/// net::Transport decorator: times every Probe and, on a traced
/// thread, records it as a "sim.probe" span.
class TimingTransport final : public net::Transport {
 public:
  TimingTransport(net::Transport& inner, ProbeTally& tally)
      : inner_(inner), tally_(tally) {}

  net::ProbeStatus Probe(net::Ipv4Addr target, std::int64_t when) override {
    const ScopedSpan span{"sim.probe"};
    const std::uint64_t start = MonoNs();
    const auto status = inner_.Probe(target, when);
    tally_.ns += MonoNs() - start;
    ++tally_.calls;
    if (net::IsPositive(status)) ++tally_.positives;
    return status;
  }

 private:
  net::Transport& inner_;
  ProbeTally& tally_;
};

/// A worker's private simulated transport, optionally timed.
class Chain final : public core::ShardChain {
 public:
  Chain(const sim::SimWorld& world, std::uint64_t site_seed, ProbeTally* tally)
      : sim_(world.MakeTransport(site_seed)) {
    if (tally != nullptr) timing_.emplace(*sim_, *tally);
  }
  net::Transport& transport() override {
    return timing_ ? static_cast<net::Transport&>(*timing_) : *sim_;
  }

 private:
  std::unique_ptr<sim::SimTransport> sim_;
  std::optional<TimingTransport> timing_;
};

/// The campaign's inputs, all derived from the seed.
struct Campaign {
  sim::SimWorld world;
  std::vector<core::BlockTarget> targets;
  std::int64_t n_rounds = 0;
  core::SupervisorConfig config;
  std::uint64_t site_seed = 0;
  int workers = 1;
};

Campaign Build(const Options& options, CountingEnv& env) {
  sim::WorldConfig world_config;
  world_config.total_blocks =
      static_cast<int>(Scaled(kBlocks, options.scale, 16));
  world_config.seed = options.seed;
  Campaign c{sim::SimWorld::Generate(world_config), {}, 0, {}, 0, 1};
  c.targets.reserve(c.world.blocks().size());
  for (const auto& block : c.world.blocks()) {
    c.targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                         sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  c.site_seed = kSite * 0x9e3779b9ULL + 1;
  c.config.seed = kSite;
  c.config.env = &env;
  c.config.checkpoint_every_blocks = static_cast<int>(
      std::max<std::size_t>(1, c.targets.size() / kCheckpointsPerCampaign));
  const sleepwalk::probing::RoundScheduler scheduler{c.config.analyzer.schedule};
  c.n_rounds = scheduler.RoundsForDays(kDays);
  c.workers = std::max(1, std::min(kWorkers, AvailableCpus() - 1));
  return c;
}

core::CampaignOutcome RunOnce(const Campaign& c, const std::string& checkpoint,
                              std::vector<ProbeTally>* tallies) {
  core::SupervisorConfig config = c.config;
  config.checkpoint_path = checkpoint;
  const core::ShardFactory factory = [&](std::size_t worker) {
    return std::make_unique<Chain>(
        c.world, c.site_seed,
        tallies != nullptr ? &(*tallies)[worker] : nullptr);
  };
  core::ParallelConfig parallel;
  parallel.workers = c.workers;
  return core::RunParallelCampaign(c.targets, factory, c.n_rounds, config,
                                   parallel);
}

storage::Error WriteDataset(CountingEnv& env, const std::string& path,
                            const Campaign& c,
                            const core::CampaignOutcome& outcome) {
  return core::WriteDatasetColumnar(env, path, outcome.result.analyses,
                                    c.config.analyzer.schedule.round_seconds,
                                    c.config.analyzer.schedule.epoch_sec);
}

double PhaseGap(double a, double b) {
  const double gap = std::fabs(a - b);
  return std::min(gap, 2.0 * std::numbers::pi - gap);
}

enum class Agreement { kSame, kTie, kDiffer };

/// The dataset stores series as f32, so a re-analysis sees the live
/// series rounded, and where two bins' amplitudes tie at that precision
/// it may pick the other one. A bin disagreement counts as such a tie
/// only when the live f64 series' own spectrum confirms it: there the
/// live and the stored bin's amplitudes are within kTieTolerance
/// relative. Phase is compared only when both pick the same daily bin.
Agreement CompareStored(const core::DiurnalResult& live,
                        const core::DiurnalResult& stored,
                        const std::vector<double>& live_series,
                        core::AnalysisScratch& scratch) {
  if (live.classification != stored.classification) return Agreement::kDiffer;
  if (live.daily_bin == stored.daily_bin &&
      PhaseGap(live.phase, stored.phase) > kPhaseTolerance) {
    return Agreement::kDiffer;
  }
  if (live.daily_bin == stored.daily_bin &&
      live.strongest_bin == stored.strongest_bin) {
    return Agreement::kSame;
  }
  sleepwalk::fft::ComputeSpectrum(live_series, sleepwalk::fft::SpectrumOptions{},
                                  scratch.fft, scratch.spectrum);
  const auto& amplitude = scratch.spectrum.amplitude;
  const auto ties = [&](std::size_t a, std::size_t b) {
    if (a >= amplitude.size() || b >= amplitude.size()) return false;
    return std::fabs(amplitude[a] - amplitude[b]) <=
           kTieTolerance * std::max(amplitude[a], amplitude[b]);
  };
  const auto bin = [](auto k) { return static_cast<std::size_t>(k); };
  if (!ties(bin(live.daily_bin), bin(stored.daily_bin)) ||
      !ties(bin(live.strongest_bin), bin(stored.strongest_bin))) {
    return Agreement::kDiffer;
  }
  return Agreement::kTie;
}

std::string Describe(const core::DiurnalResult& live,
                     const core::DiurnalResult& stored,
                     const core::BlockTarget& target) {
  return target.block.ToString() + ": classification " +
         std::to_string(static_cast<int>(live.classification)) + "/" +
         std::to_string(static_cast<int>(stored.classification)) +
         ", daily_bin " + std::to_string(live.daily_bin) + "/" +
         std::to_string(stored.daily_bin) + ", strongest_bin " +
         std::to_string(live.strongest_bin) + "/" +
         std::to_string(stored.strongest_bin) + ", phase gap " +
         std::to_string(PhaseGap(live.phase, stored.phase));
}

Confusion Score(const Campaign& c, const core::CampaignOutcome& outcome) {
  Confusion confusion;
  const auto& blocks = c.world.blocks();
  for (std::size_t i = 0; i < outcome.result.analyses.size(); ++i) {
    confusion.Add(blocks[i].truly_diurnal,
                  outcome.result.analyses[i].diurnal.IsStrict());
  }
  return confusion;
}

/// Seeded replay sample: block positions whose keyed hash falls in one
/// bucket of kReplayEvery (at least one block).
std::vector<std::size_t> ReplaySample(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < n; ++i) {
    if (sleepwalk::MixHash(seed, i, kReplayTag) % kReplayEvery == 0) {
      sample.push_back(i);
    }
  }
  if (sample.empty()) sample.push_back(0);
  return sample;
}

struct ReplayTally {
  std::uint64_t rounds = 0;
  StageTally stages;
};

/// One block through the public per-block calls, as the executor runs
/// it: RunRound for every round, then the stage chain on raw_series().
StageVerdict ReplayBlock(const Campaign& c, net::Transport& transport,
                         std::size_t index, core::AnalysisScratch& scratch,
                         sleepwalk::ts::EvenSeries& trimmed,
                         ReplayTally& tally) {
  const ScopedSpan block_span{"block"};
  const auto& target = c.targets[index];
  const auto& analyzer_config = c.config.analyzer;
  std::optional<core::BlockAnalyzer> analyzer;
  {
    const ScopedSpan span{"probing.setup"};
    analyzer.emplace(target.block, target.ever_active,
                     target.initial_availability,
                     sleepwalk::StreamSeed(c.config.seed, target.block.Index()),
                     analyzer_config);
  }
  StageVerdict verdict;
  if (!analyzer->probing_enabled()) return verdict;
  for (std::int64_t round = 0; round < c.n_rounds; ++round) {
    const ScopedSpan span{"probing.round"};
    analyzer->RunRound(transport, round);
  }
  tally.rounds += static_cast<std::uint64_t>(c.n_rounds);
  bool ok = false;
  {
    const ScopedSpan span{"ts.regularize"};
    ok = sleepwalk::ts::Regularize(analyzer->raw_series(), scratch.regularize,
                                   scratch.even);
  }
  if (!ok) return verdict;
  {
    const ScopedSpan span{"ts.trim"};
    ok = sleepwalk::ts::TrimToMidnightUtc(
        scratch.even, analyzer_config.schedule.epoch_sec,
        analyzer_config.schedule.round_seconds, trimmed);
  }
  if (!ok) return verdict;
  return AnalyzeTrimmed(trimmed.values,
                        static_cast<int>(target.ever_active.size()),
                        analyzer_config, scratch, tally.stages);
}

/// Replays `sample` on the calling thread; returns the wall time and
/// counts blocks whose verdict differs from the campaign's.
double Replay(const Campaign& c, net::Transport& transport,
              const std::vector<std::size_t>& sample,
              const core::CampaignOutcome& live, ReplayTally& tally,
              std::uint64_t& mismatches) {
  core::AnalysisScratch scratch;
  sleepwalk::ts::EvenSeries trimmed;
  const double start = MonoSeconds();
  for (const std::size_t i : sample) {
    const StageVerdict verdict =
        ReplayBlock(c, transport, i, scratch, trimmed, tally);
    if (!SameVerdict(verdict, live.result.analyses[i])) ++mismatches;
  }
  return MonoSeconds() - start;
}

void Trace(const Options& options, const Campaign& c, CountingEnv& env,
           const core::CampaignOutcome& live, double campaign_wall,
           Result& result) {
  const std::string repeat_dir = options.dir + "/repeat";
  std::filesystem::create_directories(repeat_dir);

  // 1. The campaign again, with a timing transport in every worker's
  //    chain and the counting Env underneath.
  std::vector<ProbeTally> tallies(static_cast<std::size_t>(c.workers));
  const IoSnapshot io_before = env.Snapshot();
  const auto repeat =
      RunOnce(c, repeat_dir + "/" + kCheckpointFile, &tallies);
  const double dataset_start = MonoSeconds();
  const auto dataset_error =
      WriteDataset(env, repeat_dir + "/" + kDatasetFile, c, repeat);
  const double dataset_write_s = MonoSeconds() - dataset_start;
  const IoSnapshot io = env.Snapshot().Since(io_before);
  result.AddCheck("traced repeat wrote its dataset", dataset_error.ok(),
                  ErrorText(dataset_error));
  std::uint64_t repeat_diffs = 0;
  for (std::size_t i = 0; i < live.result.analyses.size(); ++i) {
    if (repeat.result.analyses[i].diurnal.classification !=
        live.result.analyses[i].diurnal.classification) {
      ++repeat_diffs;
    }
  }
  result.AddCheck("traced repeat verdicts equal the timed campaign's",
                  repeat_diffs == 0,
                  std::to_string(repeat_diffs) + " blocks differ");

  ProbeTally probes;
  for (const auto& tally : tallies) {
    probes.calls += tally.calls;
    probes.positives += tally.positives;
    probes.ns += tally.ns;
  }

  // 2. The replay: untraced first (serial work and the overhead
  //    baseline), then traced.
  const auto sample = ReplaySample(options.seed, c.targets.size());
  auto replay_transport = c.world.MakeTransport(c.site_seed);
  ReplayTally plain_tally;
  std::uint64_t mismatches = 0;
  const double plain_wall = Replay(c, *replay_transport, sample, live,
                                   plain_tally, mismatches);

  Tracer tracer;
  const std::uint64_t origin = MonoNs();
  ThreadTrace& main_trace = tracer.NewThread(0);
  ReplayTally traced_tally;
  ProbeTally replay_probes;
  std::uint64_t root = 0;
  double traced_wall = 0.0;
  {
    const BindTrace bind{&main_trace};
    TimingTransport timed{*replay_transport, replay_probes};
    const ScopedSpan span{"replay"};
    root = span.id();
    traced_wall =
        Replay(c, timed, sample, live, traced_tally, mismatches);
  }
  result.AddCheck("replayed verdicts equal the campaign's", mismatches == 0,
                  std::to_string(mismatches) + " of " +
                      std::to_string(2 * sample.size()) + " replays differ");

  // 3. The final checkpoint: decode, re-encode, compare.
  std::vector<std::uint8_t> image;
  const auto read_error = env.ReadAll(repeat_dir + "/" + kCheckpointFile, image);
  double decode_s = 0.0;
  double encode_s = 0.0;
  bool round_trip = false;
  {
    const BindTrace bind{&main_trace};
    std::optional<core::Checkpoint> decoded;
    {
      const ScopedSpan span{"core.checkpoint.decode"};
      const double start = MonoSeconds();
      decoded = core::DecodeCheckpoint(image);
      decode_s = MonoSeconds() - start;
    }
    if (decoded) {
      const ScopedSpan span{"core.checkpoint.encode"};
      const double start = MonoSeconds();
      const auto encoded =
          core::EncodeCheckpointAs(*decoded, core::kCheckpointVersionColumnar);
      encode_s = MonoSeconds() - start;
      round_trip = encoded == image;
    }
  }
  result.AddCheck("final checkpoint re-encodes to its own bytes",
                  read_error.ok() && round_trip, ErrorText(read_error));

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

  const auto kind = [](FileKind k) { return static_cast<std::size_t>(k); };
  const auto seconds = [](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  };
  const auto checkpoint_bytes =
      static_cast<double>(io.kind_bytes_written[kind(FileKind::kCheckpoint)]);
  const double serial_work =
      plain_wall * static_cast<double>(c.targets.size()) /
      static_cast<double>(sample.size());
  const Confusion confusion = Score(c, live);

  result.AddLayer("sim.probe_calls", static_cast<double>(probes.calls), "count");
  result.AddLayer("sim.probe_s", seconds(probes.ns), "s");
  result.AddLayer("probing.probes_per_round",
                  traced_tally.rounds > 0
                      ? static_cast<double>(replay_probes.calls) /
                            static_cast<double>(traced_tally.rounds)
                      : 0.0,
                  "probes/round");
  result.AddLayer("probing.positive_share",
                  replay_probes.calls > 0
                      ? static_cast<double>(replay_probes.positives) /
                            static_cast<double>(replay_probes.calls)
                      : 0.0,
                  "ratio");
  result.AddLayer("probing.round_self_s", ledger.Self("probing.round"), "s");
  result.AddLayer("probing.setup_s", ledger.Self("probing.setup"), "s");
  result.AddLayer("ts.regularize_s", ledger.Self("ts.regularize"), "s");
  result.AddLayer("ts.trim_s", ledger.Self("ts.trim"), "s");
  result.AddLayer("ts.stationarity_s", ledger.Self("ts.stationarity"), "s");
  result.AddLayer("fft.spectrum_s", ledger.Self("fft.spectrum"), "s");
  result.AddLayer("fft.transforms",
                  static_cast<double>(traced_tally.stages.transforms), "count");
  result.AddLayer("fft.length", traced_tally.stages.MedianLength(), "samples");
  result.AddLayer("core.diurnal.classify_s",
                  ledger.Self("core.diurnal.classify"), "s");
  result.AddLayer("core.diurnal.precision", confusion.precision(), "ratio");
  result.AddLayer("core.diurnal.recall", confusion.recall(), "ratio");
  result.AddLayer("core.parallel_executor.efficiency",
                  serial_work / (c.workers * campaign_wall), "ratio");
  result.AddLayer(
      "core.checkpoint.count",
      static_cast<double>(io.kind_renames[kind(FileKind::kCheckpoint)]),
      "count");
  result.AddLayer("core.checkpoint.bytes", checkpoint_bytes, "B");
  result.AddLayer("core.checkpoint.rewrite_ratio",
                  image.empty() ? 0.0
                                : checkpoint_bytes /
                                      static_cast<double>(image.size()),
                  "ratio");
  result.AddLayer("core.checkpoint.write_s",
                  seconds(io.kind_busy_ns[kind(FileKind::kCheckpoint)]), "s");
  result.AddLayer("core.checkpoint.encode_s", encode_s, "s");
  result.AddLayer("core.checkpoint.decode_s", decode_s, "s");
  result.AddLayer(
      "core.dataset.bytes",
      static_cast<double>(io.kind_bytes_written[kind(FileKind::kDataset)]),
      "B");
  result.AddLayer("core.dataset.write_s", dataset_write_s, "s");
  AddStorageLayers(io, result);
  result.AddLayer("trace.unattributed_s", ledger.unattributed_s, "s");
  result.AddLayer("trace.coverage", ledger.coverage(), "ratio");
  result.AddLayer("trace.overhead_s", traced_wall - plain_wall, "s");
}

}  // namespace

void RunCampaign(const Options& options, Result& result) {
  CountingEnv env{storage::RealEnvInstance()};
  const Campaign c = Build(options, env);
  const std::size_t n = c.targets.size();
  const std::string checkpoint = options.dir + "/" + kCheckpointFile;
  const std::string dataset = options.dir + "/" + kDatasetFile;

  // Timed phase: campaign + dataset write.
  const IoSnapshot io_before = env.Snapshot();
  TimedPhase phase{result};
  auto outcome = RunOnce(c, checkpoint, nullptr);
  const double campaign_wall = MonoSeconds() - result.timed_start;
  const auto write_error = WriteDataset(env, dataset, c, outcome);
  phase.Stop();
  const IoSnapshot io = env.Snapshot().Since(io_before);
  result.storage_bytes = io.bytes_moved();
  result.info.emplace_back("storage_busy_s", io.busy_seconds());
  result.blocks = n;
  result.attempted = n;

  std::vector<bool> failed(n, false);
  const auto fail_all = [&] { std::fill(failed.begin(), failed.end(), true); };

  // Quarantined blocks are failures, never silently skipped.
  std::unordered_map<std::uint32_t, std::size_t> position;
  for (std::size_t i = 0; i < n; ++i) position[c.targets[i].block.Index()] = i;
  for (const auto& prefix : outcome.quarantined) {
    failed[position.at(prefix.Index())] = true;
  }
  result.AddCheck("no block quarantined", outcome.quarantined.empty(),
                  std::to_string(outcome.quarantined.size()) + " quarantined");
  result.AddCheck("every storage call succeeded",
                  io.errors == 0 && write_error.ok(),
                  io.errors ? env.first_error() : ErrorText(write_error));
  if (io.errors != 0 || !write_error.ok()) fail_all();
  const bool complete = outcome.result.analyses.size() == n &&
                        !outcome.stopped_early;
  result.AddCheck("campaign completed every block", complete);
  if (!complete) fail_all();

  if (options.inject == "flip-verdict") {
    for (auto& analysis : outcome.result.analyses) {
      if (analysis.probed) {
        analysis.diurnal.classification =
            analysis.diurnal.IsStrict() ? core::Diurnality::kNonDiurnal
                                        : core::Diurnality::kStrictlyDiurnal;
        break;
      }
    }
  }
  if (options.inject == "move-bin") {
    // The argmax moves to the next bin while the amplitude stays: only
    // the live spectrum can tell this from an f32 tie.
    for (auto& analysis : outcome.result.analyses) {
      if (analysis.probed && analysis.diurnal.n_days >= 2) {
        ++analysis.diurnal.daily_bin;
        break;
      }
    }
  }

  // Live verdicts against the re-analysis of the read-back dataset.
  const auto loaded = core::ReadDataset(env, dataset);
  if (!loaded || loaded->blocks.size() != n || !complete) {
    result.AddCheck("dataset reads back", false);
    fail_all();
  } else {
    const auto reanalyzed =
        core::ReanalyzeDataset(*loaded, c.config.analyzer, c.workers + 1);
    core::AnalysisScratch scratch;
    std::uint64_t mismatches = 0;
    std::vector<std::size_t> ties;
    std::string first;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& live = outcome.result.analyses[i];
      const auto& a = live.diurnal;
      const auto& b = reanalyzed[i].diurnal;
      switch (CompareStored(a, b, live.short_series.values, scratch)) {
        case Agreement::kSame:
          break;
        case Agreement::kTie:
          ties.push_back(i);
          break;
        case Agreement::kDiffer:
          if (mismatches == 0) first = "; first " + Describe(a, b, c.targets[i]);
          ++mismatches;
          failed[i] = true;
          break;
      }
    }
    result.AddCheck("live verdicts equal the dataset re-analysis",
                    mismatches == 0,
                    std::to_string(mismatches) + " blocks differ" + first);
    const std::size_t allowed_ties =
        std::max<std::size_t>(1, n / kBlocksPerAllowedTie);
    result.AddCheck("confirmed f32 bin ties within 1 in " +
                        std::to_string(kBlocksPerAllowedTie) + " blocks",
                    ties.size() <= allowed_ties,
                    std::to_string(ties.size()) + " ties, " +
                        std::to_string(allowed_ties) + " allowed");
    if (ties.size() > allowed_ties) {
      for (const std::size_t i : ties) failed[i] = true;
    }
    result.info.emplace_back("f32_bin_ties", static_cast<double>(ties.size()));
  }

  // The final checkpoint decodes and covers every block.
  const auto final_checkpoint = core::ReadCheckpoint(env, checkpoint);
  bool covers = final_checkpoint.has_value() &&
                final_checkpoint->fingerprint ==
                    core::CampaignFingerprint(c.targets, c.n_rounds,
                                              c.config.seed,
                                              c.config.analyzer) &&
                final_checkpoint->next_block == n &&
                final_checkpoint->completed.size() == n &&
                !final_checkpoint->has_inflight;
  for (std::size_t i = 0; covers && i < n; ++i) {
    covers = final_checkpoint->completed[i].block == c.targets[i].block;
  }
  result.AddCheck("final checkpoint decodes and covers every block", covers);
  if (!covers) fail_all();

  result.failed = static_cast<std::uint64_t>(
      std::count(failed.begin(), failed.end(), true));
  const Confusion confusion = Score(c, outcome);
  result.info.emplace_back("diurnal_precision", confusion.precision());
  result.info.emplace_back("diurnal_recall", confusion.recall());
  result.info.emplace_back("campaign_s", campaign_wall);

  if (!options.trace_path.empty()) {
    Trace(options, c, env, outcome, campaign_wall, result);
  }
}

}  // namespace perfbench
