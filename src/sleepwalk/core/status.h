// Live campaign status: the snapshot-isolated read path behind /statusz.
//
// A running campaign (core/parallel_executor.h, at any worker count)
// attaches a provider to a StatusHub; the admin plane (serve/) calls
// Snapshot() from its own thread and gets a CampaignStatus assembled
// from one locked read of the CampaignLedger plus the executor's live
// runtime counters. This is the same read path ROADMAP item 2's online
// query service will serve from: readers never block the measurement
// loop beyond the ledger's own mutex, and they can never write.
//
// Determinism contract: the `campaign`/`resilience`/`checkpoint`
// sections are pure functions of campaign state and identical across
// worker counts; the `live` section (rates, durability tax, per-shard
// scheduling counters) is wall-derived and schedule-dependent, is
// explicitly excluded from the byte-determinism guarantees, and never
// flows back into any deterministic sink.
#ifndef SLEEPWALK_CORE_STATUS_H_
#define SLEEPWALK_CORE_STATUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sleepwalk/core/checkpoint.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/obs/export.h"
#include "sleepwalk/obs/metrics.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/util/sync.h"

namespace sleepwalk::core {

/// One worker's scheduling counter (a one-worker campaign reports a
/// single shard). Workers claim blocks from one shared counter, so the
/// blocks a worker ran is the whole of its schedule.
struct ShardRuntime {
  std::uint64_t worker = 0;
  std::uint64_t blocks_run = 0;   ///< blocks this worker measured
};

/// One histogram's /statusz summary: count + estimated quantiles.
struct HistogramStatus {
  std::string name;
  std::uint64_t count = 0;
  obs::QuantileSummary quantiles;
};

/// Point-in-time view of a running (or just-finished) campaign.
struct CampaignStatus {
  // Campaign progress — snapshot-isolated ledger read, deterministic.
  std::size_t blocks_done = 0;
  std::size_t blocks_total = 0;
  std::int64_t rounds_done = 0;
  DiurnalCounts counts;
  report::ResilienceStats stats;
  RecoveryEvents recovery;
  bool resumed = false;
  bool stopped_early = false;

  // Live runtime view — wall-derived and schedule-dependent.
  double rounds_per_sec = 0.0;
  /// Percentage of campaign wall time spent inside checkpoint writes
  /// (the durability tax, live counterpart of bench/checkpoint_io).
  double durability_tax_pct = 0.0;
  std::vector<ShardRuntime> shards;

  // Histogram quantile summaries from the campaign registry.
  std::vector<HistogramStatus> quantiles;
};

/// Quantile summaries for every non-empty histogram in `registry`,
/// name-sorted (one locked snapshot per histogram).
std::vector<HistogramStatus> CollectHistogramStatus(
    const obs::Registry& registry);

/// Renders a CampaignStatus as the /statusz JSON document. Keys are a
/// stable schema (regression-tested across worker counts); non-finite
/// numbers render as null.
std::string RenderStatusJson(const CampaignStatus& status);

/// Rendezvous between at most one running campaign and any number of
/// status readers. The hub outlives campaigns (the CLI owns it for the
/// process lifetime); a campaign's provider registration is scoped by
/// the RAII Registration so a reader can never observe a dangling
/// campaign.
class StatusHub {
 public:
  using Provider = std::function<CampaignStatus()>;

  /// Detaches the provider on destruction. Move-only.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept
        : hub_(std::exchange(other.hub_, nullptr)) {}
    Registration& operator=(Registration&& other) noexcept {
      if (this != &other) {
        Reset();
        hub_ = std::exchange(other.hub_, nullptr);
      }
      return *this;
    }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { Reset(); }

    /// Detaches now; idempotent. After return no Snapshot() call is
    /// running the provider (detach serializes on the hub mutex).
    void Reset() noexcept {
      if (hub_ != nullptr) std::exchange(hub_, nullptr)->Detach();
    }

   private:
    friend class StatusHub;
    explicit Registration(StatusHub* hub) noexcept : hub_(hub) {}
    StatusHub* hub_ = nullptr;
  };

  /// Attaches `provider` as the live campaign (last attach wins). The
  /// provider runs under the hub mutex — it must only take leaf locks
  /// (the ledger's) and return quickly.
  Registration Attach(Provider provider) SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    provider_ = std::move(provider);
    return Registration{this};
  }

  /// Runs the attached provider; false when no campaign is attached.
  bool Snapshot(CampaignStatus& out) const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    if (!provider_) return false;
    out = provider_();
    return true;
  }

  bool attached() const SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return static_cast<bool>(provider_);
  }

 private:
  void Detach() SLEEPWALK_EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    provider_ = nullptr;
  }

  mutable util::Mutex mutex_;
  Provider provider_ SLEEPWALK_GUARDED_BY(mutex_);
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_STATUS_H_
