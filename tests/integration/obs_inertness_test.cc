// The telemetry subsystem's two hard invariants, end to end:
//
//  1. Inertness — a campaign's DatasetResult and checkpoint bytes are
//     identical whether it runs with a null obs::Context or full sinks
//     (logger at trace, metrics registry, tracer). Telemetry only reads
//     campaign state.
//  2. Determinism — in deterministic mode every serialized telemetry
//     byte derives from campaign state, so two same-seed runs emit
//     identical JSONL logs, traces, and metric expositions.
//
// Plus the reconciliation check ISSUE acceptance demands: the probe
// counters in the registry must agree with report::ResilienceStats and
// satisfy sent = answered + lost + rate_limited + unreachable.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sleepwalk/core/parallel_executor.h"
#include "sleepwalk/core/status.h"
#include "sleepwalk/core/supervisor.h"
#include "sleepwalk/faults/faulty_transport.h"
#include "sleepwalk/net/instrumented_transport.h"
#include "sleepwalk/obs/context.h"
#include "sleepwalk/serve/admin_server.h"
#include "sleepwalk/serve/routes.h"
#include "sleepwalk/sim/world.h"

namespace sleepwalk {
namespace {

sim::SimWorld ObsWorld() {
  sim::WorldConfig config;
  config.total_blocks = 25;
  config.seed = 0x0b5;
  return sim::SimWorld::Generate(config);
}

std::vector<core::BlockTarget> TargetsOf(const sim::SimWorld& world) {
  std::vector<core::BlockTarget> targets;
  for (const auto& block : world.blocks()) {
    targets.push_back({block.spec.block, sim::EverActiveOctets(block.spec),
                       sim::TrueAvailability(block.spec, 13 * 3600)});
  }
  return targets;
}

faults::FaultPlan ObsFaults(const sim::SimWorld& world) {
  // Exercise every probe bucket and recovery path: loss, rate limiting,
  // an unreachable storm, transport breakage (-> retries), and a dead
  // block (-> quarantine).
  faults::FaultPlan plan;
  plan.iid_loss = 0.05;
  plan.rate_limit_per_window = 8;
  plan.unreachable_windows = {{5 * 660, 15 * 660}};
  plan.error_windows = {{40 * 660, 41 * 660}};
  plan.dead_blocks = {world.blocks()[3].spec.block.Index()};
  return plan;
}

core::SupervisorConfig ObsConfig(const std::string& checkpoint_path) {
  core::SupervisorConfig config;
  config.forced_restart_rounds = {60};
  config.gap_round_windows = {{100, 104}};
  config.checkpoint_path = checkpoint_path;
  return config;
}

/// A worker's transport chain: the fault stack over the simulated world.
/// The campaign engine calls AttachObs once per block, pointing the
/// FaultyTransport's instruments at that block's buffered sinks.
class FaultyChain final : public core::ShardChain {
 public:
  explicit FaultyChain(const sim::SimWorld& world)
      : inner_{world.MakeTransport(17)},
        transport_{*inner_, ObsFaults(world)} {}

  net::Transport& transport() override { return transport_; }
  void AttachObs(const obs::Context& context) override {
    transport_.AttachObs(context);
  }
  report::ProbeAccounting accounting() const override {
    return transport_.accounting();
  }

 private:
  std::unique_ptr<sim::SimTransport> inner_;
  faults::FaultyTransport transport_;
};

/// The same over a clean stack, counted by the InstrumentedTransport
/// decorator instead of the fault layer.
class InstrumentedChain final : public core::ShardChain {
 public:
  explicit InstrumentedChain(const sim::SimWorld& world)
      : inner_{world.MakeTransport(17)},
        transport_{*inner_, obs::Context{}} {}

  net::Transport& transport() override { return transport_; }
  void AttachObs(const obs::Context& context) override {
    transport_.AttachObs(context);
  }
  report::ProbeAccounting accounting() const override {
    return transport_.accounting();
  }

 private:
  std::unique_ptr<sim::SimTransport> inner_;
  net::InstrumentedTransport transport_;
};

/// The campaign engine at one worker over `Chain`s built from `world`.
template <typename Chain>
core::CampaignOutcome RunOnChain(const sim::SimWorld& world,
                                 std::int64_t n_rounds,
                                 const core::SupervisorConfig& config) {
  core::ParallelConfig parallel;
  parallel.workers = 1;
  return core::RunParallelCampaign(
      TargetsOf(world),
      [&world](std::size_t) { return std::make_unique<Chain>(world); },
      n_rounds, config, parallel);
}

/// All sinks for one instrumented run, accumulated in memory.
struct Sinks {
  obs::Logger logger{obs::LogConfig{obs::Level::kTrace, true}};
  obs::Registry registry;
  obs::Tracer tracer;
  std::ostringstream text;
  std::ostringstream jsonl;

  Sinks() {
    logger.AddTextSink(&text);
    logger.AddJsonlSink(&jsonl);
  }

  obs::Context Context() { return {&logger, &registry, &tracer}; }

  std::string TraceJsonl() const {
    std::ostringstream out;
    tracer.WriteJsonl(out);
    return out.str();
  }
  std::string Prometheus() const {
    std::ostringstream out;
    registry.WritePrometheus(out);
    return out.str();
  }
};

core::CampaignOutcome RunObsCampaign(const std::string& checkpoint_path,
                                     const obs::Context& context,
                                     core::StatusHub* status = nullptr) {
  const auto world = ObsWorld();
  auto config = ObsConfig(checkpoint_path);
  config.obs = context;
  config.status = status;
  // The engine folds each block's accounting() delta into stats.probes.
  return RunOnChain<FaultyChain>(world, 180, config);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void ExpectSameResult(const core::DatasetResult& a,
                      const core::DatasetResult& b) {
  EXPECT_EQ(a.counts.strict, b.counts.strict);
  EXPECT_EQ(a.counts.relaxed, b.counts.relaxed);
  EXPECT_EQ(a.counts.non_diurnal, b.counts.non_diurnal);
  EXPECT_EQ(a.counts.skipped, b.counts.skipped);
  ASSERT_EQ(a.analyses.size(), b.analyses.size());
  for (std::size_t i = 0; i < a.analyses.size(); ++i) {
    const auto& x = a.analyses[i];
    const auto& y = b.analyses[i];
    ASSERT_EQ(x.block, y.block);
    EXPECT_EQ(x.diurnal.classification, y.diurnal.classification);
    EXPECT_EQ(x.down_rounds, y.down_rounds);
    ASSERT_EQ(x.short_series.values.size(), y.short_series.values.size());
    for (std::size_t s = 0; s < x.short_series.values.size(); ++s) {
      // Bitwise: telemetry must not perturb a single estimator draw.
      ASSERT_EQ(x.short_series.values[s], y.short_series.values[s])
          << "block " << i << " sample " << s;
    }
  }
}

TEST(ObsInertness, ResultAndCheckpointIdenticalWithAndWithoutSinks) {
  const std::string path_off = testing::TempDir() + "/obs_inert_off.ck";
  const std::string path_on = testing::TempDir() + "/obs_inert_on.ck";
  std::remove(path_off.c_str());
  std::remove(path_on.c_str());

  const auto off = RunObsCampaign(path_off, obs::Context{});
  Sinks sinks;
  const auto on = RunObsCampaign(path_on, sinks.Context());

  ExpectSameResult(off.result, on.result);
  EXPECT_EQ(off.stats.rounds_attempted, on.stats.rounds_attempted);
  EXPECT_EQ(off.stats.retries, on.stats.retries);
  EXPECT_EQ(off.stats.quarantined_blocks, on.stats.quarantined_blocks);
  EXPECT_EQ(off.stats.probes.attempts, on.stats.probes.attempts);
  EXPECT_EQ(off.stats.probes.answered, on.stats.probes.answered);

  const auto bytes_off = FileBytes(path_off);
  const auto bytes_on = FileBytes(path_on);
  ASSERT_FALSE(bytes_off.empty());
  EXPECT_EQ(bytes_off, bytes_on)
      << "telemetry changed the checkpoint bytes";

  // The instrumented run actually produced telemetry (the invariant is
  // not satisfied vacuously).
  EXPECT_FALSE(sinks.jsonl.str().empty());
  EXPECT_GT(sinks.tracer.spans().size(), 0u);
  EXPECT_GT(sinks.registry.size(), 0u);

  std::remove(path_off.c_str());
  std::remove(path_on.c_str());
}

TEST(ObsInertness, SameSeedRunsEmitIdenticalTelemetry) {
  const std::string path_a = testing::TempDir() + "/obs_det_a.ck";
  const std::string path_b = testing::TempDir() + "/obs_det_b.ck";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  Sinks first;
  RunObsCampaign(path_a, first.Context());
  Sinks second;
  RunObsCampaign(path_b, second.Context());

  // The checkpoint path differs between the runs, so strip the one
  // path-carrying field; every other byte must match. Compare the JSONL
  // line counts first for a readable failure.
  EXPECT_EQ(first.text.str().size(), second.text.str().size());
  EXPECT_EQ(first.TraceJsonl(), second.TraceJsonl());
  EXPECT_EQ(first.Prometheus(), second.Prometheus());

  std::istringstream lines_a{first.jsonl.str()};
  std::istringstream lines_b{second.jsonl.str()};
  std::string line_a;
  std::string line_b;
  std::size_t n = 0;
  while (std::getline(lines_a, line_a)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(lines_b, line_b)))
        << "run B ended early at line " << n;
    if (line_a != line_b) {
      // Only checkpoint.write/resume events may differ, and only in the
      // path field.
      EXPECT_NE(line_a.find("checkpoint."), std::string::npos)
          << "line " << n << " differs: " << line_a << " vs " << line_b;
    }
    ++n;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(lines_b, line_b)))
      << "run B has extra lines";
  EXPECT_GT(n, 0u);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ObsInertness, IdenticalCheckpointPathMeansByteIdenticalJsonl) {
  const std::string path = testing::TempDir() + "/obs_det_same.ck";

  std::remove(path.c_str());
  Sinks first;
  RunObsCampaign(path, first.Context());
  std::remove(path.c_str());
  Sinks second;
  RunObsCampaign(path, second.Context());
  std::remove(path.c_str());

  EXPECT_EQ(first.jsonl.str(), second.jsonl.str());
  EXPECT_EQ(first.text.str(), second.text.str());
}

/// One blocking loopback GET, response discarded: the scraper below
/// only exists to exercise the admin read path during a campaign.
void ScrapeOnce(std::uint16_t port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        std::string{"GET "} + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
    [[maybe_unused]] const auto sent =
        ::write(fd, request.data(), request.size());
    char buf[4096];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
  }
  ::close(fd);
}

TEST(ObsInertness, AdminServerAttachedRunIsByteIdentical) {
  // Tentpole invariant: the admin plane is a read-only observer. A
  // campaign scraped the whole time by /statusz + /metrics + /tracez
  // readers must produce the same dataset, checkpoint, and telemetry
  // bytes as one that ran unobserved.
  const std::string path = testing::TempDir() + "/obs_admin.ck";
  std::remove(path.c_str());

  Sinks bare;
  const auto off = RunObsCampaign(path, bare.Context());
  const auto checkpoint_bare = FileBytes(path);
  std::remove(path.c_str());

  Sinks observed;
  core::StatusHub hub;
  serve::AdminServer server;
  serve::AdminPlane plane;
  plane.metrics = &observed.registry;
  plane.tracer = &observed.tracer;
  plane.status = &hub;
  serve::InstallAdminRoutes(server, plane);
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  std::atomic<bool> done{false};
  std::thread scraper{[&] {
    while (!done.load(std::memory_order_relaxed)) {
      ScrapeOnce(server.port(), "/statusz");
      ScrapeOnce(server.port(), "/metrics");
      ScrapeOnce(server.port(), "/tracez");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }};
  const auto on = RunObsCampaign(path, observed.Context(), &hub);
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  server.Stop();
  const auto checkpoint_observed = FileBytes(path);
  std::remove(path.c_str());

  ExpectSameResult(off.result, on.result);
  ASSERT_FALSE(checkpoint_bare.empty());
  EXPECT_EQ(checkpoint_bare, checkpoint_observed)
      << "the admin server changed the checkpoint bytes";
  EXPECT_EQ(bare.jsonl.str(), observed.jsonl.str());
  EXPECT_EQ(bare.text.str(), observed.text.str());
  EXPECT_EQ(bare.Prometheus(), observed.Prometheus());
  EXPECT_EQ(bare.TraceJsonl(), observed.TraceJsonl());
}

TEST(ObsReconciliation, ProbeCountersMatchResilienceStats) {
  Sinks sinks;
  const auto outcome = RunObsCampaign("", sinks.Context());
  const auto& registry = sinks.registry;
  const auto& probes = outcome.stats.probes;

  const auto counter = [&](const char* name) -> double {
    const auto* c = registry.counter(name);
    return c != nullptr ? c->value() : -1.0;
  };

  EXPECT_TRUE(probes.Balanced());
  EXPECT_GT(probes.rate_limited, 0u);  // the plan exercised every bucket
  EXPECT_GT(probes.unreachable, 0u);
  EXPECT_GT(probes.errors, 0u);

  EXPECT_EQ(counter(net::ProbeMetricNames::kAttempted),
            static_cast<double>(probes.attempts));
  EXPECT_EQ(counter(net::ProbeMetricNames::kErrors),
            static_cast<double>(probes.errors));
  EXPECT_EQ(counter(net::ProbeMetricNames::kAnswered),
            static_cast<double>(probes.answered));
  EXPECT_EQ(counter(net::ProbeMetricNames::kLost),
            static_cast<double>(probes.lost));
  EXPECT_EQ(counter(net::ProbeMetricNames::kRateLimited),
            static_cast<double>(probes.rate_limited));
  EXPECT_EQ(counter(net::ProbeMetricNames::kUnreachable),
            static_cast<double>(probes.unreachable));

  EXPECT_EQ(counter("supervisor_rounds_total"),
            static_cast<double>(outcome.stats.rounds_attempted));
  EXPECT_EQ(counter("supervisor_retries_total"),
            static_cast<double>(outcome.stats.retries));
  EXPECT_EQ(counter("supervisor_rounds_gapped_total"),
            static_cast<double>(outcome.stats.rounds_gapped));
  EXPECT_EQ(counter("supervisor_forced_restarts_total"),
            static_cast<double>(outcome.stats.forced_restarts));
  EXPECT_EQ(counter("supervisor_quarantined_total"),
            static_cast<double>(outcome.stats.quarantined_blocks));
}

TEST(ObsReconciliation, InstrumentedTransportCountsCleanStacks) {
  // The InstrumentedTransport decorator gives a fault-free stack the
  // same probe accounting; rate_limited stays 0 behind it (a limiter
  // drop is indistinguishable from loss at that vantage).
  const auto world = ObsWorld();
  Sinks sinks;
  core::SupervisorConfig config;
  config.obs = sinks.Context();
  const auto outcome = RunOnChain<InstrumentedChain>(world, 120, config);

  const auto& probes = outcome.stats.probes;
  EXPECT_TRUE(probes.Balanced());
  EXPECT_GT(probes.attempts, 0u);
  EXPECT_EQ(probes.rate_limited, 0u);
  const auto* attempted =
      sinks.registry.counter(net::ProbeMetricNames::kAttempted);
  ASSERT_NE(attempted, nullptr);
  EXPECT_EQ(attempted->value(), static_cast<double>(probes.attempts));
  EXPECT_GT(outcome.stats.rounds_attempted, 0u);
}

}  // namespace
}  // namespace sleepwalk
