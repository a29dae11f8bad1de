// Shared campaign bookkeeping for the campaign engine
// (core/parallel_executor.h).
//
// The ledger is the single synchronization point between the engine's
// coordinator and its readers (the /statusz provider): completed
// analyses and diurnal counts, the resilience stats, the quarantine
// list, the processed-round counter that drives stop_after_rounds, and
// the early-stop/resume flags. Everything lives behind one capability
// so the clang -Wthread-safety build (scripts/static_analysis.sh, CI
// `static-analysis` job) rejects unlocked access at compile time.
// Per-block state — the analyzer, the retry counter, the round cursor —
// deliberately stays thread-local in the workers. Only the coordinator
// appends analyses, so it may read them outside the lock: a checkpoint
// save streams straight from the ledger's analyses, each carrying its
// block's final estimator state (CheckpointViewOf), without holding the
// lock across file I/O. Each finished block has exactly one record, its
// BlockAnalysis.
//
// The free helpers (backoff, gap/restart schedule checks, analysis
// classification) are the policy pieces every block must compute
// identically whichever worker runs it: a run is only independent of
// worker count if every retry delay, every skipped round, and every
// classification decision is a pure function of the block.
#ifndef SLEEPWALK_CORE_CAMPAIGN_LEDGER_H_
#define SLEEPWALK_CORE_CAMPAIGN_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/net/ipv4.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/util/sync.h"

namespace sleepwalk::core {

/// Supervisor-level instruments, resolved once per campaign (or once per
/// block against a shard-local registry). All null when the registry is
/// absent. The instruments themselves are internally synchronized
/// (obs/metrics.h), so workers update them without further locking.
struct SupervisorMetrics {
  explicit SupervisorMetrics(const obs::Context& context);

  obs::Counter* rounds;
  obs::Counter* rounds_failed;
  obs::Counter* rounds_gapped;
  obs::Counter* retries;
  obs::Counter* backoff_seconds;
  obs::Counter* forced_restarts;
  obs::Counter* quarantined;
  obs::Counter* checkpoints;
  obs::Counter* resumes;
  obs::Counter* checkpoint_recoveries;
  obs::Counter* corrupt_sections;
  obs::Counter* generations_discarded;
  obs::Gauge* blocks_done;
  obs::Gauge* blocks_total;
  obs::Gauge* rounds_per_sec;
  obs::Histogram* backoff_delay;
};

/// Deterministic jittered exponential backoff. The jitter draw is a
/// stateless hash of (seed, block, round, attempt), so retry timing never
/// perturbs any RNG stream, and every worker computes the same delay.
double BackoffDelay(const RetryConfig& retry, std::uint64_t seed,
                    std::uint32_t block, std::int64_t round, int attempt);

/// Whether `round` falls in one of the campaign's clock-gap windows.
bool InGap(const SupervisorConfig& config, std::int64_t round) noexcept;

/// Whether the fault plan schedules a prober restart at `round`.
bool IsForcedRestart(const SupervisorConfig& config,
                     std::int64_t round) noexcept;

/// Folds one finished block's analysis into the diurnal counts.
/// Quarantined blocks degrade to partial results: whatever was measured
/// is kept in the analysis record, but the aggregate counts treat the
/// block as skipped rather than classifying a truncated series.
void ClassifyAnalysis(const BlockAnalysis& analysis, bool quarantined,
                      DiurnalCounts& counts);

/// Everything one finished block contributes to the campaign: its
/// analysis, its quarantine verdict, and the resilience-stats delta it
/// accumulated off to the side (a parallel worker counts into a private
/// delta; the coordinator commits deltas strictly in block order so
/// double-valued sums fold identically for any worker count).
struct BlockCommit {
  BlockAnalysis analysis;
  net::Prefix24 block;
  bool quarantined = false;
  report::ResilienceStats delta;
  std::int64_t rounds_processed = 0;
};

/// Shared mutable campaign state; see the file comment. All methods are
/// safe from any thread.
class CampaignLedger {
 public:
  explicit CampaignLedger(std::size_t n_targets) {
    outcome_.result.analyses.reserve(n_targets);
  }

  /// Resume path: adopt everything a matching checkpoint carried, the
  /// completed analyses with their final estimator states included.
  void AdoptCheckpoint(Checkpoint& checkpoint) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    outcome_.result.analyses = std::move(checkpoint.completed);
    outcome_.result.counts = checkpoint.counts;
    outcome_.stats = checkpoint.stats;
    for (const auto index : checkpoint.quarantined) {
      outcome_.quarantined.push_back(net::Prefix24::FromIndex(index));
    }
    outcome_.resumed = true;
    outcome_.stats.resumed_from_checkpoint = true;
  }

  /// Commits a whole finished block at once: classification + analysis
  /// append + quarantine list + the block's private stats delta + its
  /// processed-round count. The parallel executor's merge stage calls
  /// this in strict block-index order; returns the new global
  /// processed-round total so the coordinator can evaluate
  /// stop_after_rounds at this block boundary.
  std::int64_t CommitBlock(BlockCommit&& commit) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    ClassifyAnalysis(commit.analysis, commit.quarantined,
                     outcome_.result.counts);
    outcome_.result.analyses.push_back(std::move(commit.analysis));
    if (commit.quarantined) outcome_.quarantined.push_back(commit.block);
    outcome_.stats.Merge(commit.delta);
    processed_rounds_ += commit.rounds_processed;
    return processed_rounds_;
  }

  /// The current shared state as a borrowed checkpoint view. The
  /// write-ahead increment of checkpoints_written is part of the view
  /// (it counts itself); a failed write is rolled back with
  /// NoteCheckpointWritten(false).
  ///
  /// The view's `completed` points into the ledger's own analyses, and
  /// the save reads them *outside* the lock, so the /statusz provider
  /// (which takes the lock) never waits on file I/O. That is safe
  /// because only the coordinator mutates what the view borrows —
  /// CommitBlock, AdoptCheckpoint and TakeOutcome are coordinator-only —
  /// and the coordinator is the one thread that saves: nothing the view
  /// points at changes until the coordinator's next CommitBlock.
  /// Coordinator-only, like those three.
  CheckpointView CheckpointViewOf(std::uint64_t fingerprint,
                                  std::size_t next_block)
      SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    CheckpointView view;
    view.fingerprint = fingerprint;
    view.counts = outcome_.result.counts;
    view.completed = outcome_.result.analyses;
    for (const auto& block : outcome_.quarantined) {
      view.quarantined.push_back(block.Index());
    }
    view.next_block = next_block;
    ++outcome_.stats.checkpoints_written;  // the view counts itself
    view.stats = outcome_.stats;
    return view;
  }

  void NoteCheckpointWritten(bool ok) SLEEPWALK_EXCLUDES(mutex_) {
    if (ok) return;
    util::MutexLock lock{mutex_};
    --outcome_.stats.checkpoints_written;
  }

  /// Records the checkpoint-recovery accounting from the resume attempt.
  void NoteRecovery(const RecoveryEvents& events) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    outcome_.recovery = events;
  }

  void NoteStoppedEarly() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    outcome_.stopped_early = true;
  }

  /// One locked read of everything /statusz reports from the ledger —
  /// snapshot isolation: progress, counts, stats, and recovery state in
  /// `status` are mutually consistent (taken under a single lock hold).
  /// The live fields (rates, shards, quantiles) are the runner's to
  /// fill. This is the read path the admin plane's status provider and,
  /// later, the online query service (ROADMAP item 2) serve from.
  void FillStatus(CampaignStatus& status) const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    status.blocks_done = outcome_.result.analyses.size();
    status.rounds_done = processed_rounds_;
    status.counts = outcome_.result.counts;
    status.stats = outcome_.stats;
    status.recovery = outcome_.recovery;
    status.resumed = outcome_.resumed;
    status.stopped_early = outcome_.stopped_early;
  }

  /// Point-in-time copy of the resilience ledger (heartbeats, logs).
  report::ResilienceStats stats_snapshot() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return outcome_.stats;
  }

  std::size_t blocks_done() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return outcome_.result.analyses.size();
  }

  DiurnalCounts counts_snapshot() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return outcome_.result.counts;
  }

  /// Final move-out; the ledger must not be used afterwards.
  CampaignOutcome TakeOutcome() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return std::move(outcome_);
  }

 private:
  mutable util::Mutex mutex_;
  CampaignOutcome outcome_ SLEEPWALK_GUARDED_BY(mutex_);
  std::int64_t processed_rounds_ SLEEPWALK_GUARDED_BY(mutex_) = 0;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_CAMPAIGN_LEDGER_H_
