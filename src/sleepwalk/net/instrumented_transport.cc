#include "sleepwalk/net/instrumented_transport.h"

namespace sleepwalk::net {

ProbeCounters::ProbeCounters(const obs::Context& context)
    : attempted(context.CounterOrNull(ProbeMetricNames::kAttempted,
                                      "Probe() invocations")),
      errors(context.CounterOrNull(ProbeMetricNames::kErrors,
                                   "transport threw; probe never sent")),
      answered(context.CounterOrNull(ProbeMetricNames::kAnswered,
                                     "echo replies")),
      lost(context.CounterOrNull(ProbeMetricNames::kLost,
                                 "timeouts (real or injected loss)")),
      rate_limited(
          context.CounterOrNull(ProbeMetricNames::kRateLimited,
                                "probes dropped by an ICMP rate limit")),
      unreachable(context.CounterOrNull(ProbeMetricNames::kUnreachable,
                                        "explicit ICMP unreachable")) {}

void ProbeCounters::RecordStatus(ProbeStatus status) noexcept {
  switch (status) {
    case ProbeStatus::kEchoReply:
      if (answered != nullptr) answered->Inc();
      break;
    case ProbeStatus::kTimeout:
      if (lost != nullptr) lost->Inc();
      break;
    case ProbeStatus::kUnreachable:
      if (unreachable != nullptr) unreachable->Inc();
      break;
  }
}

InstrumentedTransport::InstrumentedTransport(Transport& inner,
                                             const obs::Context& context)
    : inner_(inner), context_(context), counters_(context) {}

void InstrumentedTransport::AttachObs(const obs::Context& context) {
  context_ = context;
  counters_ = ProbeCounters{context};
}

ProbeStatus InstrumentedTransport::Probe(Ipv4Addr target,
                                         std::int64_t when_sec) {
  ++accounting_.attempts;
  counters_.RecordAttempt();
  ProbeStatus status;
  try {
    status = inner_.Probe(target, when_sec);
  } catch (const TransportError&) {
    ++accounting_.errors;
    counters_.RecordError();
    if (context_.Logs(obs::Level::kDebug)) {
      context_.log->Write(obs::Level::kDebug, "transport.error",
                          {{"target", target.ToString()},
                           {"when_sec", when_sec}});
    }
    throw;
  }
  switch (status) {
    case ProbeStatus::kEchoReply: ++accounting_.answered; break;
    case ProbeStatus::kTimeout: ++accounting_.lost; break;
    case ProbeStatus::kUnreachable: ++accounting_.unreachable; break;
  }
  counters_.RecordStatus(status);
  return status;
}

}  // namespace sleepwalk::net
