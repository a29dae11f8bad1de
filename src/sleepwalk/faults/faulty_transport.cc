#include "sleepwalk/faults/faulty_transport.h"

#include <algorithm>
#include <utility>

namespace sleepwalk::faults {

FaultyTransport::FaultyTransport(net::Transport& inner, FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {}

void FaultyTransport::AttachObs(const obs::Context& context) {
  obs_ = context;
  probe_counters_ = net::ProbeCounters{context};
  fault_counters_[kFaultError] = context.CounterOrNull(
      "fault_injected_error_total", "injected transport errors");
  fault_counters_[kFaultRateLimited] = context.CounterOrNull(
      "fault_injected_rate_limited_total", "injected rate-limit drops");
  fault_counters_[kFaultUnreachable] = context.CounterOrNull(
      "fault_injected_unreachable_total", "injected unreachable answers");
  fault_counters_[kFaultTimeout] = context.CounterOrNull(
      "fault_injected_timeout_total", "injected timeout-window answers");
  fault_counters_[kFaultLoss] = context.CounterOrNull(
      "fault_injected_loss_total", "injected packet loss");
  // Counters attached mid-campaign report activity from this point
  // forward: the campaign engine re-points one chain at a fresh
  // per-block registry for every block it measures, and replaying the
  // cumulative history into each would multiply-count probes.
  mirrored_ = accounting_;
}

void FaultyTransport::NoteFault(FaultKind kind, net::Ipv4Addr target,
                                std::int64_t when_sec) {
  if (fault_counters_[kind] != nullptr) fault_counters_[kind]->Inc();
  if (obs_.Logs(obs::Level::kTrace)) {
    static constexpr std::string_view kNames[kFaultKinds] = {
        "fault.error", "fault.rate_limited", "fault.unreachable",
        "fault.timeout", "fault.loss"};
    obs_.log->Write(obs::Level::kTrace, kNames[kind],
                    {{"target", target.ToString()}, {"when_sec", when_sec}});
  }
}

void FaultyTransport::MirrorAccounting() noexcept {
  if (probe_counters_.attempted == nullptr) return;
  probe_counters_.attempted->Inc(
      static_cast<double>(accounting_.attempts - mirrored_.attempts));
  probe_counters_.errors->Inc(
      static_cast<double>(accounting_.errors - mirrored_.errors));
  probe_counters_.answered->Inc(
      static_cast<double>(accounting_.answered - mirrored_.answered));
  probe_counters_.lost->Inc(
      static_cast<double>(accounting_.lost - mirrored_.lost));
  probe_counters_.rate_limited->Inc(static_cast<double>(
      accounting_.rate_limited - mirrored_.rate_limited));
  probe_counters_.unreachable->Inc(
      static_cast<double>(accounting_.unreachable - mirrored_.unreachable));
  mirrored_ = accounting_;
}

bool FaultyTransport::BurstStateAt(std::uint32_t block,
                                   std::int64_t window) noexcept {
  auto& cursor = chains_[block];
  const bool bad =
      GilbertElliottStateAt(plan_.burst, plan_.seed, block, window,
                            cursor.window, cursor.bad);
  // Only advance the cursor forward: a retried round re-queries an older
  // window, and rewinding the cache would make the recompute O(window).
  if (window >= cursor.window) {
    cursor.window = window;
    cursor.bad = bad;
  }
  return bad;
}

net::ProbeStatus FaultyTransport::Probe(net::Ipv4Addr target,
                                        std::int64_t when_sec) {
  ++accounting_.attempts;
  const std::uint32_t block = net::Prefix24{target}.Index();
  if (when_sec != current_when_ || block != current_block_) {
    current_when_ = when_sec;
    current_block_ = block;
    window_probes_ = 0;
    attempt_counts_.clear();
  }
  const std::uint32_t attempt = attempt_counts_[target.value()]++;

  if (plan_.IsDead(block) || InAnyWindow(plan_.error_windows, when_sec)) {
    ++accounting_.errors;
    NoteFault(kFaultError, target, when_sec);
    MirrorAccounting();
    throw net::TransportError{"injected transport fault"};
  }

  ++window_probes_;
  if (plan_.rate_limit_per_window > 0 &&
      window_probes_ > plan_.rate_limit_per_window) {
    ++accounting_.rate_limited;
    NoteFault(kFaultRateLimited, target, when_sec);
    MirrorAccounting();
    return net::ProbeStatus::kTimeout;
  }
  if (InAnyWindow(plan_.unreachable_windows, when_sec)) {
    ++accounting_.unreachable;
    NoteFault(kFaultUnreachable, target, when_sec);
    MirrorAccounting();
    return net::ProbeStatus::kUnreachable;
  }
  if (InAnyWindow(plan_.timeout_windows, when_sec)) {
    ++accounting_.lost;
    NoteFault(kFaultTimeout, target, when_sec);
    MirrorAccounting();
    return net::ProbeStatus::kTimeout;
  }

  // Loss: i.i.d. and bursty drops are independent events; a probe
  // survives only when it dodges both.
  double loss = plan_.iid_loss;
  if (plan_.burst.enabled) {
    const std::int64_t window =
        plan_.window_seconds > 0 ? when_sec / plan_.window_seconds : 0;
    const double burst_loss = BurstStateAt(block, window)
                                  ? plan_.burst.loss_bad
                                  : plan_.burst.loss_good;
    loss = 1.0 - (1.0 - loss) * (1.0 - burst_loss);
  }
  if (loss > 0.0) {
    const double u =
        HashUnit(plan_.seed ^ 0x10550001ULL,
                 (static_cast<std::uint64_t>(target.value()) << 32) |
                     static_cast<std::uint64_t>(attempt),
                 static_cast<std::uint64_t>(when_sec));
    if (u < loss) {
      ++accounting_.lost;
      NoteFault(kFaultLoss, target, when_sec);
      MirrorAccounting();
      return net::ProbeStatus::kTimeout;
    }
  }

  const auto status = inner_.Probe(target, when_sec);
  switch (status) {
    case net::ProbeStatus::kEchoReply:
      ++accounting_.answered;
      break;
    case net::ProbeStatus::kTimeout:
      ++accounting_.lost;
      break;
    case net::ProbeStatus::kUnreachable:
      ++accounting_.unreachable;
      break;
  }
  MirrorAccounting();
  return status;
}

}  // namespace sleepwalk::faults
