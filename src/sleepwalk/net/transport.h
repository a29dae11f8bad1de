// Transport: the seam between probing policy and the network under test.
//
// Trinocular's probing logic (sleepwalk/probing) is written against this
// interface so the same prober runs over the simulated Internet
// (sleepwalk/sim) and over real ICMP (LiveIcmpTransport).
#ifndef SLEEPWALK_NET_TRANSPORT_H_
#define SLEEPWALK_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "sleepwalk/net/ipv4.h"

namespace sleepwalk::net {

/// Outcome of a single probe.
enum class ProbeStatus : std::uint8_t {
  kEchoReply,    ///< Positive response: address is up.
  kTimeout,      ///< No answer within the probe timeout.
  kUnreachable,  ///< Explicit ICMP unreachable / refused.
};

/// True when the probe counts as a positive response in the availability
/// estimator (paper §2.1: "addresses ... will reply to an ICMP probe").
constexpr bool IsPositive(ProbeStatus status) noexcept {
  return status == ProbeStatus::kEchoReply;
}

/// Thrown by transports whose probing machinery itself failed (socket
/// torn down, injected fault window, ...): distinct from a probe that was
/// sent and went unanswered. The campaign supervisor retries these with
/// backoff and eventually quarantines the block.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Abstract probing transport. `when_sec` is the measurement time in
/// seconds since the dataset epoch; simulated transports evaluate the
/// world at that instant, live transports ignore it and use wall clock.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual ProbeStatus Probe(Ipv4Addr target, std::int64_t when_sec) = 0;
};

/// Live transport over a RawIcmpSocket. Construction fails (returns null)
/// when no ICMP socket can be opened. Non-positive `timeout_ms` is
/// clamped to 1 ms. Transient send errors (EINTR/EAGAIN) are retried once
/// and then reported as kTimeout — only hard network errors (for example
/// ENETUNREACH) surface as kUnreachable.
std::unique_ptr<Transport> MakeLiveIcmpTransport(int timeout_ms = 1000);

}  // namespace sleepwalk::net

#endif  // SLEEPWALK_NET_TRANSPORT_H_
