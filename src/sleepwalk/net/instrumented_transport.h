// InstrumentedTransport: a net::Transport decorator that counts every
// probe into an obs::Context and a report::ProbeAccounting.
//
// This is the observability seam for *non-faulty* stacks (live ICMP or
// plain simulation): it gives the campaign the same probe accounting a
// faults::FaultyTransport maintains natively, so the metrics identity
// sent = answered + lost + rate_limited + unreachable holds for every
// transport configuration. (Behind this decorator a rate-limited drop is
// indistinguishable from loss, so rate_limited stays 0 here; the faulty
// transport attributes it precisely.)
//
// Pass-through is exact: status values and exceptions reach the caller
// unmodified, so wrapping is inert with respect to campaign results.
#ifndef SLEEPWALK_NET_INSTRUMENTED_TRANSPORT_H_
#define SLEEPWALK_NET_INSTRUMENTED_TRANSPORT_H_

#include "sleepwalk/net/transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/report/resilience.h"

namespace sleepwalk::net {

/// Probe-metric names shared by every transport-level instrument (this
/// decorator and faults::FaultyTransport), so dashboards see one series
/// regardless of the stack. Catalog: DESIGN.md §7.
struct ProbeMetricNames {
  static constexpr const char* kAttempted = "probes_attempted_total";
  static constexpr const char* kErrors = "probes_error_total";
  static constexpr const char* kAnswered = "probes_answered_total";
  static constexpr const char* kLost = "probes_lost_total";
  static constexpr const char* kRateLimited = "probes_rate_limited_total";
  static constexpr const char* kUnreachable = "probes_unreachable_total";
};

/// Counter pointers resolved once from a Context; null context => all
/// null and RecordStatus costs one branch per bucket.
struct ProbeCounters {
  ProbeCounters() = default;
  explicit ProbeCounters(const obs::Context& context);

  void RecordAttempt() noexcept {
    if (attempted != nullptr) attempted->Inc();
  }
  void RecordError() noexcept {
    if (errors != nullptr) errors->Inc();
  }
  void RecordStatus(ProbeStatus status) noexcept;
  void RecordRateLimited() noexcept {
    if (rate_limited != nullptr) rate_limited->Inc();
  }

  obs::Counter* attempted = nullptr;
  obs::Counter* errors = nullptr;
  obs::Counter* answered = nullptr;
  obs::Counter* lost = nullptr;
  obs::Counter* rate_limited = nullptr;
  obs::Counter* unreachable = nullptr;
};

/// The decorator. Inner transport must outlive it.
class InstrumentedTransport final : public Transport {
 public:
  InstrumentedTransport(Transport& inner, const obs::Context& context);

  ProbeStatus Probe(Ipv4Addr target, std::int64_t when_sec) override;

  /// Re-points the probe counters at a different obs context. The
  /// parallel executor calls this once per block to direct this chain's
  /// instruments at the block's buffered registry; the cumulative
  /// accounting() is unaffected.
  void AttachObs(const obs::Context& context);

  const report::ProbeAccounting& accounting() const noexcept {
    return accounting_;
  }

 private:
  Transport& inner_;
  obs::Context context_;
  ProbeCounters counters_;
  report::ProbeAccounting accounting_;
};

}  // namespace sleepwalk::net

#endif  // SLEEPWALK_NET_INSTRUMENTED_TRANSPORT_H_
