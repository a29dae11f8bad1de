#include "sleepwalk/core/block_analyzer.h"

#include <numeric>
#include <utility>

namespace sleepwalk::core {

BlockAnalyzer::BlockAnalyzer(net::Prefix24 block,
                             std::vector<std::uint8_t> ever_active,
                             double initial_availability, std::uint64_t seed,
                             const AnalyzerConfig& config)
    : block_(block), config_(config), scheduler_(config.schedule),
      estimator_(initial_availability, config.availability),
      ever_active_(static_cast<int>(ever_active.size())) {
  // The empty check is not redundant with the policy minimum: a config
  // with min_ever_active <= 0 must degrade to "block skipped", not feed
  // an empty set into the walker (which rejects it by throwing).
  if (!ever_active.empty() && ever_active_ >= config_.min_ever_active) {
    prober_.emplace(block, std::move(ever_active), seed, config_.prober);
  }
}

void BlockAnalyzer::AttachObs(const obs::Context& context) {
  obs_ = context;
  if (prober_) prober_->AttachObs(context);
}

void BlockAnalyzer::RunRound(net::Transport& transport, std::int64_t round) {
  if (!prober_) return;
  if (obs_.enabled()) obs_.SetVirtualTime(scheduler_.TimeOf(round));
  if (scheduler_.IsRestartRound(round)) {
    prober_->Restart();
    if (obs_.Logs(obs::Level::kDebug)) {
      obs_.log->Write(obs::Level::kDebug, "prober.restart",
                      {{"block", block_.ToString()},
                       {"round", round},
                       {"reason", "scheduled"}});
    }
  }

  const auto record = prober_->RunRound(transport, round,
                                        scheduler_.TimeOf(round),
                                        estimator_.Operational());
  estimator_.Observe(record.positives, record.probes);
  raw_.Add(round, estimator_.ShortTerm());
  total_probes_ += record.probes;
  ++rounds_run_;

  if (record.concluded_down) {
    ++down_rounds_;
    if (!previous_down_) {
      outage_starts_.push_back(round);
      outages_.push_back({round, 1});
    } else if (!outages_.empty()) {
      ++outages_.back().rounds;
    }
    previous_down_ = true;
  } else if (record.concluded_up) {
    previous_down_ = false;
  }
}

void BlockAnalyzer::RunCampaign(net::Transport& transport,
                                std::int64_t n_rounds) {
  for (std::int64_t round = 0; round < n_rounds; ++round) {
    RunRound(transport, round);
  }
}

BlockAnalysis BlockAnalyzer::Finish() const {
  AnalysisScratch scratch;
  BlockAnalysis analysis;
  Finish(scratch, analysis);
  return analysis;
}

void BlockAnalyzer::Finish(AnalysisScratch& scratch,
                           BlockAnalysis& out) const {
  const auto finish_span = obs_.Span("analyze.finish");
  out.Reset(block_, ever_active_, prober_.has_value() && rounds_run_ > 0);
  out.estimator = estimator_.ExportState();
  if (!out.probed) return;

  out.final_operational = estimator_.Operational();
  out.mean_probes_per_round =
      static_cast<double>(total_probes_) / static_cast<double>(rounds_run_);
  out.down_rounds = down_rounds_;
  out.outage_starts = outage_starts_;
  out.outages = outages_;
  AnalyzeSeries(raw_.observations(), ever_active_, config_.schedule,
                config_.diurnal, config_.max_trend_addresses_per_day, &obs_,
                scratch, out);
}

void BlockAnalysis::Reset(net::Prefix24 for_block, int ever_active_count,
                          bool was_probed) noexcept {
  block = for_block;
  ever_active = ever_active_count;
  probed = was_probed;
  short_series.first_round = 0;
  short_series.values.clear();
  observed_days = 0;
  diurnal = DiurnalResult{};
  stationarity = ts::StationarityResult{};
  mean_short = 0.0;
  final_operational = 0.0;
  mean_probes_per_round = 0.0;
  down_rounds = 0;
  outage_starts.clear();
  outages.clear();
  estimator = AvailabilityState{};
}

bool AnalyzeSeries(std::optional<std::span<const ts::Observation>> raw,
                   int ever_active, const probing::ScheduleConfig& schedule,
                   const DiurnalConfig& diurnal,
                   double max_trend_addresses_per_day,
                   const obs::Context* obs, AnalysisScratch& scratch,
                   BlockAnalysis& out) {
  const obs::Context context = obs != nullptr ? *obs : obs::Context{};
  if (raw) {
    bool ok = false;
    {
      const auto span = context.Span("analyze.resample");
      ok = ts::Regularize(*raw, scratch.regularize, scratch.even);
    }
    if (!ok) return false;
    {
      const auto span = context.Span("analyze.trim");
      ok = ts::TrimToMidnightUtc(scratch.even, schedule.epoch_sec,
                                 schedule.round_seconds, out.short_series);
    }
    if (!ok) return false;
  }
  const std::span<const double> values = out.short_series.values;
  if (values.empty()) return false;

  out.observed_days = ts::WholeDays(values.size(), schedule.round_seconds);
  out.mean_short = std::accumulate(values.begin(), values.end(), 0.0) /
                   static_cast<double>(values.size());
  {
    const auto span = context.Span("analyze.stationarity");
    out.stationarity = ts::TestStationarity(
        values, ever_active, max_trend_addresses_per_day,
        schedule.round_seconds, scratch.index);
  }
  {
    const auto span = context.Span("analyze.classify");
    out.diurnal =
        ClassifyDiurnal(values, out.observed_days, diurnal, obs, scratch);
  }
  if (context.Logs(obs::Level::kDebug)) {
    context.log->Write(
        obs::Level::kDebug, "block.analyzed",
        {{"block", out.block.ToString()},
         {"days", out.observed_days},
         {"mean_short", out.mean_short},
         {"classification",
          out.diurnal.IsStrict()    ? "strict"
          : out.diurnal.IsDiurnal() ? "relaxed"
                                    : "non_diurnal"},
         {"cycles_per_day", out.diurnal.strongest_cycles_per_day}});
  }
  return true;
}

}  // namespace sleepwalk::core
