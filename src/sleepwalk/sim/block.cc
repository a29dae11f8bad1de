#include "sleepwalk/sim/block.h"

#include <algorithm>

namespace sleepwalk::sim {

namespace {

enum class Category { kNone, kAlways, kDiurnal, kIntermittent };

Category CategoryOf(const BlockSpec& spec, std::uint8_t octet) noexcept {
  // Ever-active addresses occupy octets [1, 1 + EverActiveCount()).
  if (octet < 1) return Category::kNone;
  int index = octet - 1;
  if (index < spec.n_always) return Category::kAlways;
  index -= spec.n_always;
  if (index < spec.n_diurnal) return Category::kDiurnal;
  index -= spec.n_diurnal;
  if (index < spec.n_intermittent) return Category::kIntermittent;
  return Category::kNone;
}

bool InOutage(const BlockSpec& spec, std::int64_t when_sec) noexcept {
  return spec.outage_start_sec >= 0 && when_sec >= spec.outage_start_sec &&
         when_sec < spec.outage_end_sec;
}

DiurnalParams DiurnalParamsOf(const BlockSpec& spec,
                              std::uint8_t octet) noexcept {
  DiurnalParams params;
  params.on_start_sec = DiurnalStartOf(spec, octet);
  params.on_duration_sec = spec.on_duration_sec;
  params.sigma_start_sec = spec.sigma_start_sec;
  params.sigma_duration_sec = spec.sigma_duration_sec;
  return params;
}

}  // namespace

double DiurnalStartOf(const BlockSpec& spec, std::uint8_t octet) noexcept {
  const double offset =
      spec.phase_spread_sec > 0.0F
          ? HashUniform(MixHash(spec.seed, octet, 0x9a5eu)) *
                static_cast<double>(spec.phase_spread_sec)
          : 0.0;
  return static_cast<double>(spec.on_start_sec) + offset;
}

bool AddressIsOn(const BlockSpec& spec, std::uint8_t octet,
                 std::int64_t when_sec) noexcept {
  if (InOutage(spec, when_sec)) return false;
  switch (CategoryOf(spec, octet)) {
    case Category::kNone:
      return false;
    case Category::kAlways:
      return true;
    case Category::kDiurnal:
      return DiurnalIsOn(DiurnalParamsOf(spec, octet), when_sec,
                         MixHash(spec.seed, octet));
    case Category::kIntermittent:
      return IntermittentIsOn(spec.intermittent_duty,
                              spec.intermittent_chunk_sec, when_sec,
                              MixHash(spec.seed, octet, 0x17u));
  }
  return false;
}

bool AddressResponds(const BlockSpec& spec, std::uint8_t octet,
                     std::int64_t when_sec, Rng& rng) noexcept {
  if (!AddressIsOn(spec, octet, when_sec)) return false;
  return rng.NextBool(static_cast<double>(spec.response_prob));
}

double TrueAvailability(const BlockSpec& spec,
                        std::int64_t when_sec) noexcept {
  const int ever_active = spec.EverActiveCount();
  if (ever_active == 0 || InOutage(spec, when_sec)) return 0.0;

  double up = static_cast<double>(spec.n_always);
  const int diurnal_begin = 1 + spec.n_always;
  for (int i = 0; i < spec.n_diurnal; ++i) {
    const auto octet = static_cast<std::uint8_t>(diurnal_begin + i);
    if (DiurnalIsOn(DiurnalParamsOf(spec, octet), when_sec,
                    MixHash(spec.seed, octet))) {
      up += 1.0;
    }
  }
  const int intermittent_begin = diurnal_begin + spec.n_diurnal;
  for (int i = 0; i < spec.n_intermittent; ++i) {
    const auto octet = static_cast<std::uint8_t>(intermittent_begin + i);
    if (IntermittentIsOn(spec.intermittent_duty, spec.intermittent_chunk_sec,
                         when_sec, MixHash(spec.seed, octet, 0x17u))) {
      up += 1.0;
    }
  }
  return up * static_cast<double>(spec.response_prob) /
         static_cast<double>(ever_active);
}

std::vector<std::uint8_t> EverActiveOctets(const BlockSpec& spec) {
  const int count = spec.EverActiveCount();
  std::vector<std::uint8_t> octets;
  octets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    octets.push_back(static_cast<std::uint8_t>(1 + i));
  }
  return octets;
}

void SimTransport::AddBlock(const BlockSpec* spec) {
  blocks_.insert_or_assign(spec->block.Index(), spec);
}

net::ProbeStatus SimTransport::Probe(net::Ipv4Addr target,
                                     std::int64_t when_sec) {
  ++probes_sent_;
  const auto it = blocks_.find(net::Prefix24{target}.Index());
  if (it == blocks_.end()) return net::ProbeStatus::kUnreachable;
  if (when_sec != current_when_) {
    current_when_ = when_sec;
    attempt_counts_.clear();
  }
  const std::uint32_t attempt = attempt_counts_[target.value()]++;
  // Keyed stream, not a sequenced one: the draw for (target, when,
  // attempt) is identical whatever was probed before it.
  Rng stream = Rng::ForStream(
      site_seed_, (static_cast<std::uint64_t>(target.value()) << 16) | attempt,
      static_cast<std::uint64_t>(when_sec));
  const auto octet = target.Octets()[3];
  return AddressResponds(*it->second, octet, when_sec, stream)
             ? net::ProbeStatus::kEchoReply
             : net::ProbeStatus::kTimeout;
}

}  // namespace sleepwalk::sim
