#include "sleepwalk/core/campaign_ledger.h"

#include <algorithm>
#include <cmath>

#include "sleepwalk/util/rng.h"

namespace sleepwalk::core {

SupervisorMetrics::SupervisorMetrics(const obs::Context& context)
    : rounds(context.CounterOrNull("supervisor_rounds_total",
                                   "block-rounds attempted")),
      rounds_failed(context.CounterOrNull("supervisor_rounds_failed_total",
                                          "rounds lost after retries")),
      rounds_gapped(context.CounterOrNull("supervisor_rounds_gapped_total",
                                          "rounds skipped by clock gaps")),
      retries(context.CounterOrNull("supervisor_retries_total",
                                    "round re-executions")),
      backoff_seconds(context.CounterOrNull("supervisor_backoff_seconds_total",
                                            "total retry delay")),
      forced_restarts(context.CounterOrNull(
          "supervisor_forced_restarts_total", "injected prober restarts")),
      quarantined(context.CounterOrNull("supervisor_quarantined_total",
                                        "blocks abandoned as dead")),
      checkpoints(context.CounterOrNull(
          "supervisor_checkpoints_written_total", "snapshots persisted")),
      resumes(context.CounterOrNull("supervisor_checkpoint_resumes_total",
                                    "campaigns resumed from a snapshot")),
      checkpoint_recoveries(context.CounterOrNull(
          "supervisor_checkpoint_recoveries_total",
          "resumes that fell back to an older intact generation")),
      corrupt_sections(context.CounterOrNull(
          "supervisor_checkpoint_corrupt_sections_total",
          "checkpoint sections rejected by CRC/framing checks")),
      generations_discarded(context.CounterOrNull(
          "supervisor_checkpoint_generations_discarded_total",
          "checkpoint files quarantined as corrupt")),
      blocks_done(context.GaugeOrNull("campaign_blocks_done",
                                      "targets finished")),
      blocks_total(context.GaugeOrNull("campaign_blocks_total",
                                       "targets in the campaign")),
      rounds_per_sec(context.GaugeOrNull(
          "campaign_rounds_per_sec",
          "wall-clock processing rate (live campaigns only)")),
      backoff_delay(context.HistogramOrNull(
          "supervisor_backoff_delay_seconds",
          {0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0},
          "per-retry backoff delay")) {}

double BackoffDelay(const RetryConfig& retry, std::uint64_t seed,
                    std::uint32_t block, std::int64_t round, int attempt) {
  double delay = retry.base_delay_sec * std::ldexp(1.0, attempt);
  delay = std::min(delay, retry.max_delay_sec);
  if (retry.jitter > 0.0) {
    const std::uint64_t h =
        MixHash(seed ^ 0xbac0ffULL, (static_cast<std::uint64_t>(block) << 32) |
                                        static_cast<std::uint64_t>(attempt),
                static_cast<std::uint64_t>(round));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    delay *= 1.0 + retry.jitter * (2.0 * u - 1.0);
  }
  return std::max(delay, 0.0);
}

bool InGap(const SupervisorConfig& config, std::int64_t round) noexcept {
  for (const auto& [first, last] : config.gap_round_windows) {
    if (round >= first && round < last) return true;
  }
  return false;
}

bool IsForcedRestart(const SupervisorConfig& config,
                     std::int64_t round) noexcept {
  return std::find(config.forced_restart_rounds.begin(),
                   config.forced_restart_rounds.end(),
                   round) != config.forced_restart_rounds.end();
}

void ClassifyAnalysis(const BlockAnalysis& analysis, bool quarantined,
                      DiurnalCounts& counts) {
  if (quarantined || !analysis.probed || analysis.observed_days < 2) {
    ++counts.skipped;
    return;
  }
  switch (analysis.diurnal.classification) {
    case Diurnality::kStrictlyDiurnal:
      ++counts.strict;
      break;
    case Diurnality::kRelaxedDiurnal:
      ++counts.relaxed;
      break;
    case Diurnality::kNonDiurnal:
      ++counts.non_diurnal;
      break;
  }
}

}  // namespace sleepwalk::core
