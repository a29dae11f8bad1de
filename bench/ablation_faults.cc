// Ablation: packet loss rate x burstiness vs diurnal conclusions.
//
// §2.1's estimator is built to survive a lossy measurement plane; this
// sweep quantifies how far. The same world is measured through a
// FaultyTransport at increasing loss rates, once i.i.d. and once
// Gilbert-Elliott bursty (matched long-run loss), under the resilient
// supervisor. Bursty loss is the interesting column: the same average
// loss concentrated into multi-round bursts looks like outages, not
// noise, so it erodes verdicts far sooner than the i.i.d. equivalent.
//
// Emits a text table and (always) a CSV block for plotting, one row per
// (loss, burstiness) cell with diurnal counts, probe accounting, and
// recovery counters.
#include <iostream>
#include <memory>

#include "common.h"
#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/report/table.h"

int main() {
  using namespace sleepwalk;
  const int n_blocks = bench::BlocksScale(600);
  const int days = bench::DaysScale(10);
  bench::PrintHeader(
      "Ablation: packet loss x burstiness vs diurnal verdicts",
      "adaptive probing absorbs moderate random loss; the same loss "
      "delivered in Gilbert-Elliott bursts mimics outages and flips "
      "verdicts sooner");

  sim::WorldConfig world_config;
  world_config.total_blocks = n_blocks;
  world_config.seed = 0xfa115;
  const auto world = sim::SimWorld::Generate(world_config);

  std::vector<core::BlockTarget> baseline_targets;
  for (const auto& block : world.blocks()) {
    baseline_targets.push_back(bench::TargetFor(block));
  }

  core::SupervisorConfig config;
  const probing::RoundScheduler scheduler{config.analyzer.schedule};
  const auto n_rounds = scheduler.RoundsForDays(days);

  const double loss_rates[] = {0.0, 0.05, 0.10, 0.20, 0.35, 0.50};
  struct Row {
    double loss;
    bool bursty;
    core::CampaignOutcome outcome;
    report::ProbeAccounting probes;
  };
  std::vector<Row> rows;

  for (const double loss : loss_rates) {
    for (const bool bursty : {false, true}) {
      if (bursty && loss == 0.0) continue;
      faults::FaultPlan plan;
      plan.seed = 0xfa115;
      if (bursty) {
        // Gilbert-Elliott with the same long-run loss: bad state drops
        // 80%, transition rates chosen so stationary-bad * 0.8 = loss.
        plan.burst.enabled = true;
        plan.burst.loss_bad = 0.8;
        plan.burst.p_bad_to_good = 0.3;
        const double bad = loss / plan.burst.loss_bad;
        plan.burst.p_good_to_bad =
            bad < 1.0 ? 0.3 * bad / (1.0 - bad) : 1.0;
      } else {
        plan.iid_loss = loss;
      }

      auto inner = world.MakeTransport(0xfa115);
      faults::FaultyTransport transport{*inner, plan};
      auto targets = baseline_targets;
      core::ParallelConfig parallel;
      parallel.workers = 1;
      auto outcome = core::RunParallelCampaign(
          std::move(targets),
          [&transport](std::size_t) {
            return std::make_unique<core::PlainShardChain>(transport);
          },
          n_rounds, config, parallel);
      rows.push_back({loss, bursty, std::move(outcome),
                      transport.accounting()});
    }
  }

  report::TextTable table{{"loss", "model", "strict", "either", "skipped",
                           "down rounds/blk", "probes answered"}};
  for (const auto& row : rows) {
    const auto& counts = row.outcome.result.counts;
    std::int64_t down = 0;
    for (const auto& analysis : row.outcome.result.analyses) {
      down += analysis.down_rounds;
    }
    const double blocks =
        static_cast<double>(row.outcome.result.analyses.size());
    table.AddRow(
        {report::Percent(row.loss, 0), row.bursty ? "bursty" : "iid",
         report::Percent(counts.StrictFraction(), 1),
         report::Percent(counts.EitherFraction(), 1),
         report::WithCommas(counts.skipped),
         report::Fixed(static_cast<double>(down) / blocks, 2),
         report::Percent(static_cast<double>(row.probes.answered) /
                             static_cast<double>(row.probes.sent()),
                         1)});
  }
  table.Print(std::cout);

  std::cout << "\nCSV:\nloss,model,strict,relaxed,non_diurnal,skipped,"
            << report::ResilienceCsvHeader() << "\n";
  for (const auto& row : rows) {
    auto stats = row.outcome.stats;
    stats.probes.Merge(row.probes);
    const auto& counts = row.outcome.result.counts;
    std::cout << row.loss << ',' << (row.bursty ? "bursty" : "iid") << ','
              << counts.strict << ',' << counts.relaxed << ','
              << counts.non_diurnal << ',' << counts.skipped << ','
              << report::ResilienceCsvRow(stats) << "\n";
    if (!stats.probes.Balanced()) {
      std::cout << "WARNING: probe accounting unbalanced at loss "
                << row.loss << "\n";
    }
  }
  std::cout << "bursty rows should show more down-rounds and earlier "
               "verdict erosion than iid rows of equal average loss\n";
  return 0;
}
