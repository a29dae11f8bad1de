// FaultyTransport: a net::Transport decorator executing a FaultPlan.
//
// Wraps any transport (simulated or live) and injects, per probe and in
// this order:
//   1. transport breakage   — error windows / dead blocks throw
//                             net::TransportError (probe never sent);
//   2. ICMP rate limiting   — probes beyond the per-round threshold are
//                             silently dropped (kTimeout);
//   3. unreachable storms   — scheduled windows answer kUnreachable;
//   4. forced timeouts      — scheduled windows answer kTimeout;
//   5. packet loss          — i.i.d. and/or Gilbert-Elliott bursty drops;
//   6. pass-through         — the inner transport answers.
// Every probe lands in exactly one accounting bucket, so campaigns can
// prove sent = answered + lost + rate-limited + unreachable.
//
// Determinism: all draws are stateless hashes of (seed, target, window,
// attempt); transient per-window counters reset whenever the probed
// (block, instant) changes. A block therefore sees the identical fault
// sequence whichever chain measures it and whatever ran before it, so a
// campaign resumed at a block boundary replays the uninterrupted run.
#ifndef SLEEPWALK_FAULTS_FAULTY_TRANSPORT_H_
#define SLEEPWALK_FAULTS_FAULTY_TRANSPORT_H_

#include <cstdint>
#include <unordered_map>

#include "sleepwalk/faults/plan.h"
#include "sleepwalk/net/instrumented_transport.h"
#include "sleepwalk/net/transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"

namespace sleepwalk::faults {

/// Fault-injecting decorator. The inner transport must outlive it.
class FaultyTransport final : public net::Transport {
 public:
  FaultyTransport(net::Transport& inner, FaultPlan plan);

  /// Attaches telemetry: the shared probe counters (net::ProbeMetricNames
  /// — here rate-limited drops are attributed precisely, unlike the
  /// generic decorator) plus fault_injected_*_total counters and
  /// trace-level fault events. Telemetry is derived from the accounting
  /// it mirrors and never feeds back into fault decisions, so attaching
  /// a context cannot change a campaign's results.
  void AttachObs(const obs::Context& context);

  net::ProbeStatus Probe(net::Ipv4Addr target,
                         std::int64_t when_sec) override;

  const report::ProbeAccounting& accounting() const noexcept {
    return accounting_;
  }
  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  bool BurstStateAt(std::uint32_t block, std::int64_t window) noexcept;

  /// Fault-kind slots in fault_counters_, and names for fault events.
  enum FaultKind : std::size_t {
    kFaultError = 0,
    kFaultRateLimited,
    kFaultUnreachable,
    kFaultTimeout,
    kFaultLoss,
    kFaultKinds,
  };

  /// Logs the injected fault (trace level) and bumps its counter.
  void NoteFault(FaultKind kind, net::Ipv4Addr target,
                 std::int64_t when_sec);
  /// Increments the shared probe counters by however much accounting_
  /// advanced since the last mirror.
  void MirrorAccounting() noexcept;

  net::Transport& inner_;
  FaultPlan plan_;
  report::ProbeAccounting accounting_;

  // Telemetry (never consulted by fault decisions).
  obs::Context obs_;
  net::ProbeCounters probe_counters_;
  obs::Counter* fault_counters_[kFaultKinds] = {};
  report::ProbeAccounting mirrored_;

  // Per-(block, instant) transients.
  std::uint32_t current_block_ = 0xffffffffu;
  std::int64_t current_when_ = -1;
  int window_probes_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> attempt_counts_;

  // Per-block Gilbert-Elliott chain cursors (pure cache; recomputable).
  struct ChainCursor {
    std::int64_t window = -1;
    bool bad = false;
  };
  std::unordered_map<std::uint32_t, ChainCursor> chains_;
};

}  // namespace sleepwalk::faults

#endif  // SLEEPWALK_FAULTS_FAULTY_TRANSPORT_H_
