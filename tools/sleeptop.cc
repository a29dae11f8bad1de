// sleeptop: a top(1)-style live view of a running campaign, polling the
// admin plane's GET /statusz endpoint.
//
//   sleeptop --port P [--host 127.0.0.1] [--interval SEC] [--once]
//
// Start a campaign with `sleepwalk_cli measure --admin-port P ...` and
// point sleeptop at the same port. With --once it prints a single
// snapshot and exits (scripts use this); otherwise it redraws every
// --interval seconds (default 2) until interrupted or the server goes
// away.
//
// Dependency-free on purpose (raw TCP + a field scanner over the known
// /statusz schema), like the other tools: it must run wherever the
// project builds.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "sleepwalk/util/parse.h"

namespace {

/// One blocking HTTP GET; returns false when the connection fails.
bool HttpGet(const std::string& host, int port, const std::string& path,
             std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  const char* data = request.c_str();
  std::size_t remaining = request.size();
  while (remaining > 0) {
    const auto sent = ::write(fd, data, remaining);
    if (sent <= 0) {
      ::close(fd);
      return false;
    }
    data += sent;
    remaining -= static_cast<std::size_t>(sent);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const auto got = ::read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const auto split = response.find("\r\n\r\n");
  if (split == std::string::npos || !response.starts_with("HTTP/1.1 200")) {
    return false;
  }
  body = response.substr(split + 4);
  return true;
}

/// First number following `"key":` after `from`; `fallback` when absent.
double FindNumber(const std::string& json, const std::string& key,
                  std::size_t from = 0, double fallback = 0.0) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle, from);
  if (pos == std::string::npos) return fallback;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

std::string FormatCount(double value) {
  char buf[32];
  if (value >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", value / 1e6);
  } else if (value >= 1e4) {
    std::snprintf(buf, sizeof(buf), "%.1fk", value / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  }
  return buf;
}

void Render(const std::string& json, const std::string& host, int port) {
  if (json.find("\"attached\":true") == std::string::npos) {
    std::cout << "no campaign attached at " << host << ":" << port << "\n";
    return;
  }
  const double blocks_done = FindNumber(json, "blocks_done");
  const double blocks_total = FindNumber(json, "blocks_total");
  const double pct =
      blocks_total > 0 ? 100.0 * blocks_done / blocks_total : 0.0;
  std::printf("sleepwalk campaign @ %s:%d\n", host.c_str(), port);
  std::printf("blocks   %s/%s (%.1f%%)   rounds %s (%s/s)\n",
              FormatCount(blocks_done).c_str(),
              FormatCount(blocks_total).c_str(), pct,
              FormatCount(FindNumber(json, "rounds_done")).c_str(),
              FormatCount(FindNumber(json, "rounds_per_sec")).c_str());
  std::printf("diurnal  strict %s  relaxed %s  non-diurnal %s  skipped %s\n",
              FormatCount(FindNumber(json, "strict")).c_str(),
              FormatCount(FindNumber(json, "relaxed")).c_str(),
              FormatCount(FindNumber(json, "non_diurnal")).c_str(),
              FormatCount(FindNumber(json, "skipped")).c_str());
  const double attempts = FindNumber(json, "attempts");
  const double lost = FindNumber(json, "lost");
  std::printf("probes   attempts %s  answered %s  lost %s (%.2f%%)\n",
              FormatCount(attempts).c_str(),
              FormatCount(FindNumber(json, "answered")).c_str(),
              FormatCount(lost).c_str(),
              attempts > 0 ? 100.0 * lost / attempts : 0.0);
  std::printf(
      "resil    retries %s  quarantined %s  ckpts %s  durability tax "
      "%.2f%%\n",
      FormatCount(FindNumber(json, "retries")).c_str(),
      FormatCount(FindNumber(json, "quarantined_blocks")).c_str(),
      FormatCount(FindNumber(json, "written")).c_str(),
      FindNumber(json, "durability_tax_pct"));

  // Per-shard scheduling counters from the "shards":[...] array.
  const auto shards = json.find("\"shards\":[");
  if (shards != std::string::npos) {
    std::printf("shards  ");
    std::size_t cursor = shards;
    while (true) {
      const auto open = json.find("{\"worker\":", cursor);
      const auto end = json.find(']', cursor);
      if (open == std::string::npos || (end != std::string::npos && open > end)) {
        break;
      }
      std::printf(" w%.0f:%s blk", FindNumber(json, "worker", open),
                  FormatCount(FindNumber(json, "blocks_run", open)).c_str());
      cursor = json.find('}', open);
      if (cursor == std::string::npos) break;
    }
    std::printf("\n");
  }

  // Histogram quantile summaries from the "quantiles":[...] array.
  const auto quantiles = json.find("\"quantiles\":[");
  if (quantiles != std::string::npos) {
    std::size_t cursor = quantiles;
    while (true) {
      const auto open = json.find("{\"name\":\"", cursor);
      if (open == std::string::npos) break;
      const auto name_start = open + 9;
      const auto name_end = json.find('"', name_start);
      if (name_end == std::string::npos) break;
      std::printf("  %-36s p50 %-10g p95 %-10g p99 %-10g\n",
                  json.substr(name_start, name_end - name_start).c_str(),
                  FindNumber(json, "p50", open),
                  FindNumber(json, "p95", open),
                  FindNumber(json, "p99", open));
      cursor = json.find('}', open);
      if (cursor == std::string::npos) break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  double interval = 2.0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--port" && i + 1 < argc) {
      const auto value = sleepwalk::util::ParseNumber(argv[++i], 1, 65535);
      if (!value) {
        std::cerr << "sleeptop: --port expects an integer in [1, 65535], "
                     "got '" << argv[i] << "'\n";
        return 2;
      }
      port = *value;
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--interval" && i + 1 < argc) {
      const auto value =
          sleepwalk::util::ParseNumber(argv[++i], 0.01, 86400.0);
      if (!value) {
        std::cerr << "sleeptop: --interval expects seconds in [0.01, 86400], "
                     "got '" << argv[i] << "'\n";
        return 2;
      }
      interval = *value;
    } else {
      std::cerr << "usage: sleeptop --port P [--host H] [--interval SEC] "
                   "[--once]\n";
      return 2;
    }
  }
  if (port <= 0) {
    std::cerr << "sleeptop: --port P is required\n";
    return 2;
  }

  int misses = 0;
  while (true) {
    std::string body;
    if (!HttpGet(host, port, "/statusz", body)) {
      if (once) {
        std::cerr << "sleeptop: cannot reach " << host << ":" << port
                  << "\n";
        return 1;
      }
      if (++misses >= 3) {
        std::cerr << "sleeptop: server gone\n";
        return 1;
      }
    } else {
      misses = 0;
      if (!once) std::printf("\033[H\033[2J");  // home + clear
      Render(body, host, port);
      std::fflush(stdout);
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}
