// The campaign engine: block-parallel execution with a deterministic
// merge. It is the only campaign engine — RunCampaign
// (core/pipeline.h) is this executor at one worker over a
// PlainShardChain — so workers = 1 is a degenerate case, not a second
// code path.
//
// N worker threads claim blocks in index order from one shared
// counter. Each worker owns a private transport chain (built by the caller's ShardFactory —
// e.g. SimTransport + FaultyTransport), and each *block* gets private
// keyed RNG streams (util/rng.h StreamSeed), a private buffered
// logger/registry/tracer, and a private resilience-stats delta. Workers
// therefore share no mutable measurement state at all; the only
// cross-thread traffic is finished-block results flowing to the
// coordinator.
//
// Determinism argument (DESIGN.md §9): a block's measurement is a pure
// function of (campaign seed, block index, fault plan) — every random
// draw is keyed, never sequenced, so it cannot observe which worker ran
// it or what ran before it on that worker. The coordinator then commits
// results in strict block-index order: stats deltas fold in one fixed
// order (double sums are order-sensitive), buffered log bytes append in
// block order, spans graft in block order, and checkpoints always cover
// an exact block prefix. An N-worker run therefore produces
// byte-identical datasets, checkpoints, and telemetry to a 1-worker run
// with the same seed; tests/core/parallel_executor_test.cc and the
// bench harness (bench/parallel_scaling.cc) both pin this.
#ifndef SLEEPWALK_CORE_PARALLEL_EXECUTOR_H_
#define SLEEPWALK_CORE_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/net/transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"

namespace sleepwalk::core {

/// Number of workers a default-configured executor uses: the hardware
/// concurrency, floored at 1.
int HardwareWorkers() noexcept;

/// The one worker-count rule: `workers` <= 0 means HardwareWorkers(),
/// clamped to [1, number of `grain`-sized chunks of [0, n)], so no
/// thread ever starts without work.
std::size_t FanOutWorkers(std::size_t n, std::size_t grain,
                          int workers) noexcept;

/// Calls body(worker, begin, end) for every `grain`-sized chunk of
/// [0, n), claimed from one counter by FanOutWorkers(n, grain, workers)
/// threads; `worker` indexes the claiming thread, for per-worker state.
/// grain = 1 balances uneven items, grain = ceil(n / workers) gives each
/// thread one contiguous range. One worker runs inline, with no thread.
void ForEachChunk(
    std::size_t n, std::size_t grain, int workers,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// One worker's private transport chain. The factory must build chains
/// that are *interchangeable*: identically seeded and identically
/// configured, so a block probes the same whichever worker runs it (the
/// chains exist per worker for thread-safety, not for stream identity).
/// AttachObs is called once per block to point the chain's instruments
/// at that block's buffered telemetry; accounting() is sampled before
/// and after each block to attribute probe counts.
class ShardChain {
 public:
  virtual ~ShardChain() = default;

  /// The transport the block analyzer probes through.
  virtual net::Transport& transport() = 0;

  /// Re-points chain instrumentation at a block-local obs context.
  virtual void AttachObs(const obs::Context& context) {
    static_cast<void>(context);
  }

  /// Cumulative probe accounting for this chain; the executor takes
  /// per-block differences.
  virtual report::ProbeAccounting accounting() const { return {}; }
};

/// Builds worker `worker`'s private chain. Called once per worker, from
/// the coordinator thread, before any block runs.
using ShardFactory =
    std::function<std::unique_ptr<ShardChain>(std::size_t worker)>;

/// Minimal adapter for callers that already hold a thread-safe (or
/// single-worker) transport and want no chain instrumentation.
class PlainShardChain final : public ShardChain {
 public:
  explicit PlainShardChain(net::Transport& transport)
      : transport_(&transport) {}
  net::Transport& transport() override { return *transport_; }

 private:
  net::Transport* transport_;
};

struct ParallelConfig {
  /// Worker threads; <= 0 means HardwareWorkers().
  int workers = 0;
};

/// Runs (or resumes) a hardened campaign over `targets` (see
/// core/supervisor.h for the policy), sharded across worker threads,
/// with results committed in block order so the outcome is
/// byte-identical for any worker count. Everything is block-granular:
///   * checkpoints are written at checkpoint_every_blocks commit
///     boundaries and at completion — each is an exact block prefix;
///   * resume accepts only such block-prefix checkpoints (a file from
///     the retired mid-block engine — in-flight state or a transport
///     snapshot — is refused and the campaign starts fresh);
///   * stop_after_rounds takes effect at the first block commit at or
///     past the threshold.
/// Telemetry reaches a chain's transport only through
/// ShardChain::AttachObs, so a chain's instruments always write into the
/// running block's buffered sinks.
CampaignOutcome RunParallelCampaign(std::vector<BlockTarget> targets,
                                    const ShardFactory& factory,
                                    std::int64_t n_rounds,
                                    const SupervisorConfig& config = {},
                                    const ParallelConfig& parallel = {});

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_PARALLEL_EXECUTOR_H_
