// perfbench_harness: one batch job of one benchmark workload.
//
//   perfbench_harness prepare --workload reanalyze --seed S --dir D [--scale F]
//   perfbench_harness run --workload W --seed S --dir D [--scale F]
//                         [--trace FILE]
//                         [--inject flip-verdict|move-bin|corrupt-snapshot]
//
// `run` prints exactly one JSON object on stdout: the timed-phase
// figures, the correctness checks and, with --trace, the per-layer
// metrics. Progress and diagnostics go to stderr. perfbench/run.py is
// the entry point to use; it builds this binary, repeats it and
// aggregates.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double PeakRssMb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t Scaled(std::size_t base, double scale, std::size_t floor) {
  const auto scaled =
      static_cast<std::size_t>(std::llround(static_cast<double>(base) * scale));
  return std::max(scaled, floor);
}

namespace {

// Timings from unoptimized or sanitizer-instrumented code are refused.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

bool OptimizedBuild(std::string& why) {
#if !defined(__OPTIMIZE__)
  why = "compiled without optimization";
  return false;
#elif defined(PERFBENCH_SANITIZED)
  why = "compiled with a sanitizer";
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") {
    why = "build type " + type;
    return false;
  }
  return true;
#endif
}

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

void PrintResult(const Options& options, const Result& result) {
  std::ostringstream out;
  out << "{\"workload\":\"" << Escape(options.workload) << "\""
      << ",\"seed\":" << options.seed << ",\"blocks\":" << result.blocks
      << ",\"timed_start\":" << Number(result.timed_start)
      << ",\"timed_s\":" << Number(result.timed_s)
      << ",\"storage_bytes\":" << result.storage_bytes
      << ",\"peak_rss_mb\":" << Number(result.peak_rss_mb)
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed
      << ",\"correct\":" << (result.correct() ? "true" : "false");
  out << ",\"provenance\":{\"hw_threads\":" << AvailableCpus()
      << ",\"cpu_model\":\"" << Escape(CpuModel()) << "\""
      << ",\"compiler\":\"" << Escape(PERFBENCH_COMPILER) << "\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\"}";
  out << ",\"checks\":[";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    const auto& check = result.checks[i];
    out << (i ? "," : "") << "{\"name\":\"" << Escape(check.name)
        << "\",\"ok\":" << (check.ok ? "true" : "false")
        << ",\"detail\":\"" << Escape(check.detail) << "\"}";
  }
  out << "],\"layers\":{";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const auto& metric = result.layers[i];
    out << (i ? "," : "") << "\"" << Escape(metric.name)
        << "\":{\"value\":" << Number(metric.value) << ",\"unit\":\""
        << Escape(metric.unit) << "\"}";
  }
  out << "},\"info\":{";
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    out << (i ? "," : "") << "\"" << Escape(result.info[i].first)
        << "\":" << Number(result.info[i].second);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench_harness prepare|run --workload W --seed S "
               "--dir D [--scale F] [--trace FILE] [--inject WHAT]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--dir") {
      options.dir = value;
    } else if (key == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.scale > 0.0) ||
          options.scale > 1.0) {
        return false;
      }
    } else if (key == "--trace") {
      options.trace_path = value;
    } else if (key == "--inject") {
      if (value != "flip-verdict" && value != "move-bin" &&
          value != "corrupt-snapshot") {
        return false;
      }
      options.inject = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && !options.dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string why;
  if (!OptimizedBuild(why)) {
    std::cerr << "perfbench_harness: refusing to measure: " << why << "\n";
    return 3;
  }
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Options options;
  if (!ParseArgs(argc, argv, options)) return Usage();

  if (command == "prepare") {
    if (options.workload != "reanalyze") {
      std::cerr << "perfbench_harness: only reanalyze has inputs to prepare\n";
      return 2;
    }
    return PrepareReanalyze(options);
  }
  if (command != "run") return Usage();

  Result result;
  if (options.workload == "campaign") {
    RunCampaign(options, result);
  } else if (options.workload == "reanalyze") {
    RunReanalyze(options, result);
  } else if (options.workload == "store_campaign") {
    RunStoreCampaign(options, result);
  } else {
    std::cerr << "perfbench_harness: unknown workload " << options.workload
              << "\n";
    return 2;
  }
  PrintResult(options, result);
  for (const auto& check : result.checks) {
    if (!check.ok) {
      std::cerr << "check failed: " << check.name << ": " << check.detail
                << "\n";
    }
  }
  return result.correct() ? 0 : 1;
}
