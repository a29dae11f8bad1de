// FaultyTransport: every probe lands in one accounting bucket, faults
// fire deterministically, and moderate injected loss does not flip a
// clean diurnal block's classification.
#include <gtest/gtest.h>

#include <cstdint>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/faults/plan.h"
#include "sleepwalk/probing/scheduler.h"
#include "sleepwalk/sim/block.h"

namespace sleepwalk::faults {
namespace {

/// An inner transport that always answers — isolates the fault layer.
class AlwaysUpTransport final : public net::Transport {
 public:
  net::ProbeStatus Probe(net::Ipv4Addr, std::int64_t) override {
    ++probes;
    return net::ProbeStatus::kEchoReply;
  }
  std::int64_t probes = 0;
};

net::Ipv4Addr AddressIn(std::uint32_t prefix_index, std::uint8_t octet) {
  return net::Prefix24::FromIndex(prefix_index).Address(octet);
}

TEST(FaultyTransport, NoFaultsPassesThroughAndBalances) {
  AlwaysUpTransport inner;
  FaultyTransport transport{inner, FaultPlan{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(transport.Probe(AddressIn(1, static_cast<std::uint8_t>(i)), 0),
              net::ProbeStatus::kEchoReply);
  }
  const auto& accounting = transport.accounting();
  EXPECT_EQ(accounting.attempts, 100u);
  EXPECT_EQ(accounting.answered, 100u);
  EXPECT_EQ(accounting.errors, 0u);
  EXPECT_TRUE(accounting.Balanced());
  EXPECT_EQ(inner.probes, 100);
}

TEST(FaultyTransport, IidLossNearConfiguredRate) {
  AlwaysUpTransport inner;
  FaultPlan plan;
  plan.iid_loss = 0.3;
  FaultyTransport transport{inner, plan};
  const int n = 20000;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    // Distinct instants so per-window attempt counters keep resetting.
    if (transport.Probe(AddressIn(1, static_cast<std::uint8_t>(i % 200)),
                        i / 200) == net::ProbeStatus::kTimeout) {
      ++lost;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.3, 0.02);
  EXPECT_TRUE(transport.accounting().Balanced());
}

TEST(FaultyTransport, RetriedProbeDrawsFreshLoss) {
  // The same (target, instant) probed twice must not share its loss draw:
  // the attempt counter feeds the hash, so a retry can succeed.
  AlwaysUpTransport inner;
  FaultPlan plan;
  plan.iid_loss = 0.5;
  FaultyTransport transport{inner, plan};
  const auto target = AddressIn(3, 7);
  bool saw_both = false;
  for (int instant = 0; instant < 200 && !saw_both; ++instant) {
    const auto first = transport.Probe(target, instant);
    const auto second = transport.Probe(target, instant);
    if (first != second) saw_both = true;
  }
  EXPECT_TRUE(saw_both);
}

TEST(FaultyTransport, RateLimitDropsExcessProbesPerWindow) {
  AlwaysUpTransport inner;
  FaultPlan plan;
  plan.rate_limit_per_window = 5;
  FaultyTransport transport{inner, plan};
  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    if (transport.Probe(AddressIn(1, static_cast<std::uint8_t>(i)), 1000) ==
        net::ProbeStatus::kEchoReply) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 5);
  EXPECT_EQ(transport.accounting().rate_limited, 15u);
  // A new round instant resets the limiter.
  EXPECT_EQ(transport.Probe(AddressIn(1, 0), 2000),
            net::ProbeStatus::kEchoReply);
  EXPECT_TRUE(transport.accounting().Balanced());
}

TEST(FaultyTransport, ScheduledWindowsFire) {
  AlwaysUpTransport inner;
  FaultPlan plan;
  plan.timeout_windows = {{100, 200}};
  plan.unreachable_windows = {{300, 400}};
  FaultyTransport transport{inner, plan};
  EXPECT_EQ(transport.Probe(AddressIn(1, 1), 150),
            net::ProbeStatus::kTimeout);
  EXPECT_EQ(transport.Probe(AddressIn(1, 1), 350),
            net::ProbeStatus::kUnreachable);
  EXPECT_EQ(transport.Probe(AddressIn(1, 1), 500),
            net::ProbeStatus::kEchoReply);
  EXPECT_TRUE(transport.accounting().Balanced());
}

TEST(FaultyTransport, DeadBlocksAndErrorWindowsThrow) {
  AlwaysUpTransport inner;
  FaultPlan plan;
  plan.dead_blocks = {7u};
  plan.error_windows = {{1000, 1100}};
  FaultyTransport transport{inner, plan};
  EXPECT_THROW(transport.Probe(AddressIn(7, 1), 0), net::TransportError);
  EXPECT_THROW(transport.Probe(AddressIn(1, 1), 1050), net::TransportError);
  EXPECT_EQ(transport.Probe(AddressIn(1, 1), 0),
            net::ProbeStatus::kEchoReply);
  const auto& accounting = transport.accounting();
  EXPECT_EQ(accounting.errors, 2u);
  EXPECT_EQ(accounting.sent(), 1u);
  EXPECT_TRUE(accounting.Balanced());
  EXPECT_EQ(inner.probes, 1);  // faulted probes never reach the inner
}

TEST(FaultyTransport, BurstyLossNearExpectedLongRunRate) {
  AlwaysUpTransport inner;
  FaultPlan plan;
  plan.window_seconds = 1;
  plan.burst.enabled = true;
  plan.burst.p_good_to_bad = 0.05;
  plan.burst.p_bad_to_good = 0.3;
  plan.burst.loss_bad = 0.8;
  FaultyTransport transport{inner, plan};
  const int n = 40000;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    if (transport.Probe(AddressIn(2, static_cast<std::uint8_t>(i % 100)),
                        i / 4) == net::ProbeStatus::kTimeout) {
      ++lost;
    }
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, plan.burst.ExpectedLoss(),
              0.03);
  EXPECT_TRUE(transport.accounting().Balanced());
}

TEST(FaultyTransport, DeterministicAcrossInstances) {
  FaultPlan plan;
  plan.iid_loss = 0.2;
  plan.burst.enabled = true;
  AlwaysUpTransport inner_a;
  AlwaysUpTransport inner_b;
  FaultyTransport a{inner_a, plan};
  FaultyTransport b{inner_b, plan};
  for (int i = 0; i < 2000; ++i) {
    const auto target = AddressIn(4, static_cast<std::uint8_t>(i % 64));
    ASSERT_EQ(a.Probe(target, i / 8), b.Probe(target, i / 8)) << i;
  }
}

// The ISSUE's controlled experiment: a clean strictly-diurnal block must
// keep its strict verdict under moderate bursty loss — the adaptive
// prober absorbs the drops (§2.1), it does not hallucinate outages.
core::BlockAnalysis AnalyzeControlledBlock(const FaultPlan& plan,
                                           bool with_faults) {
  sim::BlockSpec spec;
  spec.block = net::Prefix24::FromIndex(0x070000);
  spec.seed = 0xc1ea4;
  spec.n_always = 50;
  spec.n_diurnal = 100;
  spec.response_prob = 1.0F;

  core::AnalyzerConfig config;
  const probing::RoundScheduler scheduler{config.schedule};
  sim::SimTransport inner{0x7247};
  inner.AddBlock(&spec);
  FaultyTransport faulty{inner, plan};
  net::Transport& transport =
      with_faults ? static_cast<net::Transport&>(faulty) : inner;
  core::BlockAnalyzer analyzer{spec.block, sim::EverActiveOctets(spec),
                               sim::TrueAvailability(spec, 13 * 3600),
                               0x9e37, config};
  analyzer.RunCampaign(transport, scheduler.RoundsForDays(7));
  return analyzer.Finish();
}

TEST(FaultyTransport, ModerateBurstyLossKeepsCleanBlockStrict) {
  FaultPlan plan;
  plan.iid_loss = 0.05;
  plan.burst.enabled = true;  // defaults: ~11% extra loss, bursty
  const auto clean = AnalyzeControlledBlock(plan, /*with_faults=*/false);
  const auto faulted = AnalyzeControlledBlock(plan, /*with_faults=*/true);
  ASSERT_TRUE(clean.probed);
  ASSERT_TRUE(faulted.probed);
  EXPECT_TRUE(clean.diurnal.IsStrict());
  EXPECT_TRUE(faulted.diurnal.IsStrict())
      << "moderate loss flipped a clean block's strict verdict";
  EXPECT_EQ(clean.diurnal.classification, faulted.diurnal.classification);
}

}  // namespace
}  // namespace sleepwalk::faults
