// Workload `reanalyze`: the `analyze` path over a stored dataset.
//
// `prepare` (the set-up, run as its own process so its memory does not
// count against the timed one) generates a SimWorld of 8,000 blocks from
// the seed and writes one series of 4582 samples per block (35 days of
// 660 s rounds, the A_12w length; even, so the real-input FFT runs) as
// an SLPW v3 dataset. Which blocks carry a daily component, and how
// strong it is, comes from the world's own BlockSpecs; the world's
// truly_diurnal flags are the ground truth for precision and recall.
// Blocks below the analyzer's min_ever_active are stored unprobed, as
// the campaign leaves them. The timed phase is ReadDataset +
// ReanalyzeDataset at 4 workers.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench.h"
#include "counting_env.h"
#include "sleepwalk/core/dataset.h"
#include "sleepwalk/core/dataset_columnar.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/sim/world.h"
#include "sleepwalk/util/rng.h"
#include "stages.h"
#include "trace.h"

namespace perfbench {

namespace core = sleepwalk::core;
namespace sim = sleepwalk::sim;
namespace storage = sleepwalk::storage;

namespace {

constexpr std::size_t kBlocks = 8000;
constexpr int kDays = 35;
constexpr std::size_t kSamples = 4582;  // 35 days of 660 s rounds
constexpr std::int64_t kRoundSeconds = 660;
constexpr double kDaySeconds = 86400.0;
constexpr int kWorkers = 4;
constexpr std::uint64_t kCheckEvery = 64;   // single-block re-derivation
constexpr std::uint64_t kReplayEvery = 8;   // traced replay sample
constexpr std::uint64_t kSeriesTag = 0x736572696573ULL;
constexpr std::uint64_t kCheckTag = 0x636865636bULL;
constexpr std::uint64_t kReplayTag = 0x7265706c6179ULL;

/// The world both processes derive from the seed: `prepare` writes its
/// series, the timed process scores verdicts against its intent.
sim::SimWorld World(const Options& options) {
  sim::WorldConfig config;
  config.total_blocks = static_cast<int>(Scaled(kBlocks, options.scale, 16));
  config.seed = options.seed;
  config.duration_days = kDays;
  return sim::SimWorld::Generate(config);
}

bool InSample(std::uint64_t seed, std::size_t i, std::uint64_t tag,
              std::uint64_t every) {
  return sleepwalk::MixHash(seed, i, tag) % every == 0;
}

/// Share of the block's diurnal addresses whose daily window covers
/// `when`. Window starts are spread uniformly over
/// [on_start, on_start + phase_spread) and each window lasts
/// on_duration, so an address with offset u is on when
/// (when - on_start - u) mod day < on_duration.
double DiurnalOnShare(const sim::BlockSpec& spec, std::int64_t when) {
  const double duration = spec.on_duration_sec;
  const double spread = spec.phase_spread_sec;
  double x = std::fmod(static_cast<double>(when) - spec.on_start_sec,
                       kDaySeconds);
  if (x < 0.0) x += kDaySeconds;
  if (spread <= 0.0) return x < duration ? 1.0 : 0.0;
  // Offsets u in (x - duration, x], shifted by whole days, within
  // [0, spread).
  double covered = 0.0;
  for (int k = -1; k <= 1; ++k) {
    const double lo = std::max(0.0, x - duration + k * kDaySeconds);
    const double hi = std::min(spread, x + k * kDaySeconds);
    if (hi > lo) covered += hi - lo;
  }
  return covered / spread;
}

bool InOutage(const sim::BlockSpec& spec, std::int64_t when) {
  return spec.outage_start_sec >= 0 && when >= spec.outage_start_sec &&
         when < spec.outage_end_sec;
}

/// Block `source`'s stored series: what a survey of its ever-active
/// addresses (every address probed every round, paper §2.5) sees, drawn
/// from the world's BlockSpec. Each round the on addresses are the
/// always-on ones, DiurnalOnShare() of the diurnal ones and the
/// intermittent ones on in the current chunk (one binomial draw per
/// chunk); each on address answers with the block's response
/// probability, and outages answer nothing. Two shortcuts keep this
/// cheap next to sim::TrueAvailabilitySeries, which evaluates every
/// address in every round: the per-day start and duration jitter is
/// left out, and binomial draws are taken as Gaussian.
void Synthesize(const sim::WorldBlock& source, std::uint64_t seed,
                std::size_t i, int min_ever_active, core::BlockAnalysis& out) {
  const sim::BlockSpec& spec = source.spec;
  auto rng = sleepwalk::Rng::ForStream(seed, i, kSeriesTag);
  out.block = spec.block;
  out.ever_active = spec.EverActiveCount();
  out.probed = out.ever_active >= min_ever_active;
  out.short_series.first_round = 0;
  out.short_series.values.clear();
  if (!out.probed) return;
  const double response = spec.response_prob;
  const double diurnal = spec.n_diurnal;
  const double intermittent = spec.n_intermittent;
  const double duty = spec.intermittent_duty;
  std::int64_t chunk = -1;
  double intermittent_on = 0.0;
  out.short_series.values.resize(kSamples);
  for (std::size_t t = 0; t < kSamples; ++t) {
    const std::int64_t when = static_cast<std::int64_t>(t) * kRoundSeconds;
    if (InOutage(spec, when)) {
      out.short_series.values[t] = 0.0;
      continue;
    }
    if (intermittent > 0.0 && spec.intermittent_chunk_sec > 0 &&
        when / spec.intermittent_chunk_sec != chunk) {
      chunk = when / spec.intermittent_chunk_sec;
      intermittent_on = std::clamp(
          std::round(intermittent * duty +
                     std::sqrt(intermittent * duty * (1.0 - duty)) *
                         rng.NextGaussian()),
          0.0, intermittent);
    }
    const double share = DiurnalOnShare(spec, when);
    const double on = spec.n_always + diurnal * share + intermittent_on;
    const double variance = response * (1.0 - response) * on +
                            response * response * diurnal * share * (1.0 - share);
    const double answered = response * on + std::sqrt(variance) * rng.NextGaussian();
    out.short_series.values[t] =
        std::clamp(answered / out.ever_active, 0.0, 1.0);
  }
}

Confusion Score(const sim::SimWorld& world,
                const std::vector<core::BlockAnalysis>& analyses) {
  Confusion confusion;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    confusion.Add(world.blocks()[i].truly_diurnal,
                  analyses[i].diurnal.IsStrict());
  }
  return confusion;
}

bool SameAnalysis(const core::BlockAnalysis& a, const core::BlockAnalysis& b) {
  return a.probed == b.probed && a.observed_days == b.observed_days &&
         a.mean_short == b.mean_short &&
         SameVerdict(StageVerdict{a.stationarity, a.diurnal}, b);
}

void Trace(const Options& options, const sim::SimWorld& world,
           const core::Dataset& dataset,
           const std::vector<core::BlockAnalysis>& analyses,
           const IoSnapshot& io, double load_s, Result& result) {
  const core::AnalyzerConfig config;
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < dataset.blocks.size(); ++i) {
    if (InSample(options.seed, i, kReplayTag, kReplayEvery)) sample.push_back(i);
  }
  std::uint64_t mismatches = 0;
  const auto replay = [&](StageTally& tally) {
    core::AnalysisScratch scratch;
    const double start = MonoSeconds();
    for (const std::size_t i : sample) {
      const ScopedSpan span{"block"};
      const auto& stored = dataset.blocks[i];
      StageVerdict verdict;
      if (stored.probed && !stored.series.values.empty()) {
        verdict = AnalyzeTrimmed(stored.series.values, stored.ever_active,
                                 config, scratch, tally);
      }
      if (!SameVerdict(verdict, analyses[i])) ++mismatches;
    }
    return MonoSeconds() - start;
  };
  StageTally plain_tally;
  const double plain_wall = replay(plain_tally);

  Tracer tracer;
  const std::uint64_t origin = MonoNs();
  ThreadTrace& main_trace = tracer.NewThread(0);
  StageTally tally;
  std::uint64_t root = 0;
  double traced_wall = 0.0;
  {
    const BindTrace bind{&main_trace};
    const ScopedSpan span{"replay"};
    root = span.id();
    traced_wall = replay(tally);
  }
  result.AddCheck("replayed verdicts equal ReanalyzeDataset's",
                  mismatches == 0,
                  std::to_string(mismatches) + " of " +
                      std::to_string(2 * sample.size()) + " replays differ");
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

  const Confusion confusion = Score(world, analyses);
  result.AddLayer("ts.stationarity_s", ledger.Self("ts.stationarity"), "s");
  result.AddLayer("fft.spectrum_s", ledger.Self("fft.spectrum"), "s");
  result.AddLayer("fft.transforms", static_cast<double>(tally.transforms),
                  "count");
  result.AddLayer("fft.length", tally.MedianLength(), "samples");
  result.AddLayer("core.diurnal.classify_s",
                  ledger.Self("core.diurnal.classify"), "s");
  result.AddLayer("core.diurnal.precision", confusion.precision(), "ratio");
  result.AddLayer("core.diurnal.recall", confusion.recall(), "ratio");
  result.AddLayer("core.dataset.bytes", static_cast<double>(io.bytes_read), "B");
  result.AddLayer("core.dataset.load_s", load_s, "s");
  AddStorageLayers(io, result);
  result.AddLayer("trace.unattributed_s", ledger.unattributed_s, "s");
  result.AddLayer("trace.coverage", ledger.coverage(), "ratio");
  result.AddLayer("trace.overhead_s", traced_wall - plain_wall, "s");
}

}  // namespace

int PrepareReanalyze(const Options& options) {
  const sim::SimWorld world = World(options);
  const int min_ever_active = core::AnalyzerConfig{}.min_ever_active;
  std::vector<core::BlockAnalysis> blocks(world.blocks().size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Synthesize(world.blocks()[i], options.seed, i, min_ever_active, blocks[i]);
  }
  const auto error = core::WriteDatasetColumnar(
      storage::RealEnvInstance(), options.dir + "/" + kDatasetFile, blocks,
      kRoundSeconds, 0);
  if (!error.ok()) {
    std::cerr << "prepare: " << error.ToString() << "\n";
    return 1;
  }
  return 0;
}

void RunReanalyze(const Options& options, Result& result) {
  CountingEnv env{storage::RealEnvInstance()};
  const core::AnalyzerConfig config;
  const sim::SimWorld world = World(options);
  const std::size_t n = world.blocks().size();
  const int workers = std::min(kWorkers, AvailableCpus());

  // Timed phase: load + re-analysis.
  const IoSnapshot io_before = env.Snapshot();
  TimedPhase phase{result};
  const auto dataset = core::ReadDataset(env, options.dir + "/" + kDatasetFile);
  const double load_s = MonoSeconds() - result.timed_start;
  auto analyses = dataset ? core::ReanalyzeDataset(*dataset, config, workers)
                          : std::vector<core::BlockAnalysis>{};
  phase.Stop();
  const IoSnapshot io = env.Snapshot().Since(io_before);
  result.storage_bytes = io.bytes_moved();
  result.info.emplace_back("storage_busy_s", io.busy_seconds());
  result.attempted = n;

  bool loaded = dataset && dataset->blocks.size() == n;
  for (std::size_t i = 0; loaded && i < n; ++i) {
    loaded = dataset->blocks[i].block == world.blocks()[i].spec.block;
  }
  result.AddCheck("dataset loads with every block", loaded,
                  env.first_error());
  result.AddCheck("every storage call succeeded", io.errors == 0,
                  env.first_error());
  if (!loaded || io.errors != 0) {
    result.failed = n;
    return;
  }
  result.blocks = n;

  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < n; ++i) {
    if (InSample(options.seed, i, kCheckTag, kCheckEvery)) sample.push_back(i);
  }
  if (sample.empty()) sample.push_back(0);
  if (options.inject == "flip-verdict") {
    auto& diurnal = analyses[sample.front()].diurnal;
    diurnal.classification = diurnal.IsStrict()
                                 ? core::Diurnality::kNonDiurnal
                                 : core::Diurnality::kStrictlyDiurnal;
  }
  // A seeded 1-in-64 sample, re-derived through single-block Reanalyze,
  // must match the bulk result bit for bit.
  std::uint64_t mismatches = 0;
  for (const std::size_t i : sample) {
    if (!SameAnalysis(core::Reanalyze(dataset->blocks[i], config),
                      analyses[i])) {
      ++mismatches;
    }
  }
  result.failed = mismatches;
  result.AddCheck("sampled blocks re-derive bit for bit", mismatches == 0,
                  std::to_string(mismatches) + " of " +
                      std::to_string(sample.size()) + " differ");

  const Confusion confusion = Score(world, analyses);
  result.info.emplace_back("diurnal_precision", confusion.precision());
  result.info.emplace_back("diurnal_recall", confusion.recall());
  result.info.emplace_back("load_s", load_s);

  if (!options.trace_path.empty()) {
    Trace(options, world, *dataset, analyses, io, load_s, result);
  }
}

}  // namespace perfbench
