// Per-block measurement pipeline: adaptive probing -> availability
// estimation -> cleaned A-hat_s timeseries -> diurnal classification.
//
// This is the composition of the paper's §2.1 and §2.2 for one /24:
// each round the Trinocular prober runs with the current operational
// estimate A-hat_o, its (p, t) counts update the estimator, and the
// short-term estimate A-hat_s is recorded. At the end AnalyzeSeries, the
// one §2.2 chain that the store sweep and dataset re-analysis also run,
// regularizes, trims to midnight UTC, stationarity-checks, and
// spectrally classifies the series.
#ifndef SLEEPWALK_CORE_BLOCK_ANALYZER_H_
#define SLEEPWALK_CORE_BLOCK_ANALYZER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sleepwalk/core/analysis_scratch.h"
#include "sleepwalk/core/availability.h"
#include "sleepwalk/core/diurnal.h"
#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/net/transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/probing/prober.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/ts/clean.h"
#include "sleepwalk/ts/stationarity.h"

namespace sleepwalk::core {

/// Analyzer knobs combining the sub-component configurations.
struct AnalyzerConfig {
  AvailabilityConfig availability;
  DiurnalConfig diurnal;
  probing::ProberConfig prober;
  probing::ScheduleConfig schedule;
  /// Trinocular policy: blocks with fewer ever-active addresses than this
  /// are not probed (§3.2.4 — the source of sparse-block false negatives).
  int min_ever_active = 15;
  /// Stationarity threshold: address changes per day (§2.2).
  double max_trend_addresses_per_day = 1.0;
};

/// One contiguous run of down verdicts (an outage episode).
struct OutageEpisode {
  std::int64_t start_round = 0;
  std::int64_t rounds = 0;  ///< consecutive rounds with a down verdict

  /// Duration given the campaign's round length.
  double DurationHours(std::int64_t round_seconds = 660) const noexcept {
    return static_cast<double>(rounds * round_seconds) / 3600.0;
  }
};

/// Everything measured about one block.
struct BlockAnalysis {
  net::Prefix24 block;
  bool probed = false;  ///< false => skipped by the sparse-block policy
  int ever_active = 0;

  /// Cleaned + midnight-trimmed short-term availability series.
  ts::EvenSeries short_series;
  int observed_days = 0;

  DiurnalResult diurnal;
  ts::StationarityResult stationarity;

  double mean_short = 0.0;        ///< mean A-hat_s over the campaign
  double final_operational = 0.0; ///< A-hat_o after the last round
  double mean_probes_per_round = 0.0;
  int down_rounds = 0;            ///< rounds with an outage verdict
  std::vector<std::int64_t> outage_starts;  ///< first round of each outage
  std::vector<OutageEpisode> outages;       ///< contiguous down episodes
  /// Final EWMA estimator state (§2.1), unprobed blocks included (their
  /// seeded prior). Checkpoints persist it so a resumed campaign
  /// continues the same trajectories; re-analysis leaves it default.
  AvailabilityState estimator;

  /// Resets every field in place; clear() keeps the vectors' capacity
  /// where a fresh BlockAnalysis{} would free it.
  void Reset(net::Prefix24 for_block, int ever_active_count,
             bool was_probed) noexcept;
};

/// The §2.2 stage chain: Regularize `raw`, TrimToMidnightUtc into
/// out.short_series, then WholeDays, mean, TestStationarity and
/// ClassifyDiurnal into `out` (reset by the caller). With no `raw` it
/// enters at the tail, on the trimmed out.short_series of a stored
/// dataset. `obs` (nullable) gets the analyze.* spans and the debug log.
/// Returns true when the block reached classification.
bool AnalyzeSeries(std::optional<std::span<const ts::Observation>> raw,
                   int ever_active, const probing::ScheduleConfig& schedule,
                   const DiurnalConfig& diurnal,
                   double max_trend_addresses_per_day,
                   const obs::Context* obs, AnalysisScratch& scratch,
                   BlockAnalysis& out);

/// Drives one block through a probing campaign.
class BlockAnalyzer {
 public:
  /// `ever_active` lists E(b)'s last-octets (from "historical data");
  /// `initial_availability` seeds the estimator. When E(b) is smaller
  /// than the policy minimum (or empty) the analyzer refuses to probe.
  BlockAnalyzer(net::Prefix24 block, std::vector<std::uint8_t> ever_active,
                double initial_availability, std::uint64_t seed,
                const AnalyzerConfig& config = {});

  /// True when the block passes the probing policy.
  bool probing_enabled() const noexcept { return prober_.has_value(); }

  /// Attaches telemetry (forwarded to the prober): the campaign clock is
  /// advanced to each round's virtual time, scheduled prober restarts
  /// are logged (the §4 artifact source), and Finish()'s analyze stages
  /// — resample, trim, stationarity, FFT, classify — run under tracer
  /// spans. Inert: analysis output is identical with or without it.
  void AttachObs(const obs::Context& context);

  /// Runs one round (restarting the prober first on restart boundaries)
  /// and records the post-round A-hat_s sample.
  void RunRound(net::Transport& transport, std::int64_t round);

  /// Runs rounds [0, n_rounds).
  void RunCampaign(net::Transport& transport, std::int64_t n_rounds);

  const AvailabilityEstimator& estimator() const noexcept {
    return estimator_;
  }

  /// Raw (uncleaned) A-hat_s observations recorded so far.
  const ts::RawSeries& raw_series() const noexcept { return raw_; }

  /// Forces a prober restart outside the schedule — fault injection of
  /// the §4 restart artifact, or a real supervisor-driven recovery.
  void ForceRestart() noexcept {
    if (prober_) prober_->Restart();
  }

  /// Prober-only snapshot, cheap enough to take every round: restoring it
  /// rolls back a round that died mid-probing (transport error) so the
  /// round can be retried without double-applying belief updates.
  probing::ProberState prober_state() const noexcept {
    return prober_ ? prober_->ExportState() : probing::ProberState{};
  }
  void restore_prober_state(const probing::ProberState& state) noexcept {
    if (prober_) prober_->RestoreState(state);
  }

  /// Rounds executed so far.
  std::int64_t rounds_run() const noexcept { return rounds_run_; }

  /// Finalizes: cleans, trims, tests stationarity, classifies.
  BlockAnalysis Finish() const;

  /// Hot-loop variant: every intermediate lives in `scratch` and the
  /// result is written into `out` (whose vector capacities are reused),
  /// so a warm call performs zero heap allocations. Output is identical
  /// to the allocating Finish().
  void Finish(AnalysisScratch& scratch, BlockAnalysis& out) const;

 private:
  net::Prefix24 block_;
  AnalyzerConfig config_;
  probing::RoundScheduler scheduler_;
  AvailabilityEstimator estimator_;
  std::optional<probing::AdaptiveProber> prober_;
  int ever_active_ = 0;
  obs::Context obs_;

  ts::RawSeries raw_;
  std::int64_t total_probes_ = 0;
  std::int64_t rounds_run_ = 0;
  int down_rounds_ = 0;
  bool previous_down_ = false;
  std::vector<std::int64_t> outage_starts_;
  std::vector<OutageEpisode> outages_;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_BLOCK_ANALYZER_H_
