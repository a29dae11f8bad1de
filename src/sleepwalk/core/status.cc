#include "sleepwalk/core/status.h"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace sleepwalk::core {

namespace {

/// Shortest round-trip double formatting; non-finite values become JSON
/// null (NaN/Inf are not legal JSON numbers).
void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, static_cast<std::size_t>(ptr - buffer));
}

void AppendCount(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, static_cast<std::size_t>(ptr - buffer));
}

void AppendSigned(std::string& out, std::int64_t value) {
  char buffer[24];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, static_cast<std::size_t>(ptr - buffer));
}

/// Metric names are [a-z0-9_]; escape defensively anyway.
void AppendString(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::vector<HistogramStatus> CollectHistogramStatus(
    const obs::Registry& registry) {
  std::vector<HistogramStatus> out;
  for (auto& [name, snapshot] : registry.HistogramSnapshots()) {
    if (snapshot.count == 0) continue;  // quantiles of nothing are noise
    HistogramStatus status;
    status.name = name;
    status.count = snapshot.count;
    status.quantiles = obs::SummarizeQuantiles(snapshot);
    out.push_back(std::move(status));
  }
  return out;
}

std::string RenderStatusJson(const CampaignStatus& status) {
  std::string out;
  out.reserve(1024);
  out += "{\"attached\":true,\"campaign\":{\"blocks_done\":";
  AppendCount(out, status.blocks_done);
  out += ",\"blocks_total\":";
  AppendCount(out, status.blocks_total);
  out += ",\"rounds_done\":";
  AppendSigned(out, status.rounds_done);
  out += ",\"resumed\":";
  out += status.resumed ? "true" : "false";
  out += ",\"stopped_early\":";
  out += status.stopped_early ? "true" : "false";
  out += ",\"counts\":{\"strict\":";
  AppendSigned(out, status.counts.strict);
  out += ",\"relaxed\":";
  AppendSigned(out, status.counts.relaxed);
  out += ",\"non_diurnal\":";
  AppendSigned(out, status.counts.non_diurnal);
  out += ",\"skipped\":";
  AppendSigned(out, status.counts.skipped);
  out += "}},\"resilience\":{\"rounds_attempted\":";
  AppendCount(out, status.stats.rounds_attempted);
  out += ",\"rounds_failed\":";
  AppendCount(out, status.stats.rounds_failed);
  out += ",\"rounds_gapped\":";
  AppendCount(out, status.stats.rounds_gapped);
  out += ",\"retries\":";
  AppendCount(out, status.stats.retries);
  out += ",\"backoff_seconds\":";
  AppendNumber(out, status.stats.backoff_seconds);
  out += ",\"forced_restarts\":";
  AppendCount(out, status.stats.forced_restarts);
  out += ",\"quarantined_blocks\":";
  AppendCount(out, status.stats.quarantined_blocks);
  out += ",\"probes\":{\"attempts\":";
  AppendCount(out, status.stats.probes.attempts);
  out += ",\"errors\":";
  AppendCount(out, status.stats.probes.errors);
  out += ",\"answered\":";
  AppendCount(out, status.stats.probes.answered);
  out += ",\"lost\":";
  AppendCount(out, status.stats.probes.lost);
  out += ",\"rate_limited\":";
  AppendCount(out, status.stats.probes.rate_limited);
  out += ",\"unreachable\":";
  AppendCount(out, status.stats.probes.unreachable);
  out += "}},\"checkpoint\":{\"written\":";
  AppendCount(out, status.stats.checkpoints_written);
  out += ",\"resumed_from_checkpoint\":";
  out += status.stats.resumed_from_checkpoint ? "true" : "false";
  out += ",\"recoveries\":";
  AppendCount(out, status.recovery.recoveries);
  out += ",\"corrupt_sections\":";
  AppendCount(out, status.recovery.corrupt_sections);
  out += ",\"generations_discarded\":";
  AppendCount(out, status.recovery.generations_discarded);
  out += "},\"live\":{\"rounds_per_sec\":";
  AppendNumber(out, status.rounds_per_sec);
  out += ",\"durability_tax_pct\":";
  AppendNumber(out, status.durability_tax_pct);
  out += ",\"workers\":";
  AppendCount(out, status.shards.size());
  out += ",\"shards\":[";
  for (std::size_t i = 0; i < status.shards.size(); ++i) {
    const auto& shard = status.shards[i];
    if (i > 0) out += ',';
    out += "{\"worker\":";
    AppendCount(out, shard.worker);
    out += ",\"blocks_run\":";
    AppendCount(out, shard.blocks_run);
    out += '}';
  }
  out += "]},\"quantiles\":[";
  for (std::size_t i = 0; i < status.quantiles.size(); ++i) {
    const auto& histogram = status.quantiles[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    AppendString(out, histogram.name);
    out += ",\"count\":";
    AppendCount(out, histogram.count);
    out += ",\"p50\":";
    AppendNumber(out, histogram.quantiles.p50);
    out += ",\"p95\":";
    AppendNumber(out, histogram.quantiles.p95);
    out += ",\"p99\":";
    AppendNumber(out, histogram.quantiles.p99);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace sleepwalk::core
