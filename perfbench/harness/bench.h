// Shared pieces of the perfbench harness: options, the result record
// every workload fills, clocks and process probes.
//
// The harness drives the sleepwalk libraries only through their public
// headers. One process runs one workload once (one batch job); the
// Python runner (perfbench/run.py) repeats processes and takes medians.
#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;         ///< fresh directory for every file the run writes
  double scale = 1.0;      ///< block-count multiplier (tests use a tiny one)
  std::string trace_path;  ///< non-empty: the traced run, Chrome trace here
  std::string inject;      ///< test hook: "flip-verdict" | "move-bin" | "corrupt-snapshot"
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One correctness check; a failed check fails the run.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// What one harness process reports (printed as one JSON line).
struct Result {
  std::uint64_t blocks = 0;     ///< blocks the timed phase completed
  double timed_start = 0.0;     ///< monotonic seconds at timed-phase start
  double timed_s = 0.0;         ///< timed-phase wall time
  std::uint64_t storage_bytes = 0;  ///< bytes through storage::Env, timed
  double peak_rss_mb = 0.0;     ///< VmHWM right after the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  std::vector<Metric> layers;   ///< per-layer metrics (traced run only)
  std::vector<std::pair<std::string, double>> info;  ///< informational

  void AddCheck(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void AddLayer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const {
    for (const auto& check : checks) {
      if (!check.ok) return false;
    }
    return failed == 0;
  }
};

/// Monotonic seconds on the same clock as Python's time.monotonic()
/// (CLOCK_MONOTONIC), so the runner can measure process start to
/// timed-phase start.
inline double MonoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t MonoNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set size (VmHWM) of this process in MB.
double PeakRssMb();

/// Brackets a timed phase: wall time from construction to Stop(),
/// which also samples peak RSS.
class TimedPhase {
 public:
  explicit TimedPhase(Result& result) : result_(result) {
    result_.timed_start = MonoSeconds();
  }
  void Stop() {
    result_.timed_s = MonoSeconds() - result_.timed_start;
    result_.peak_rss_mb = PeakRssMb();
  }

 private:
  Result& result_;
};

/// CPUs this process may run on (sched_getaffinity), at least 1.
int AvailableCpus();

/// `base` scaled by `scale`, at least `floor`.
std::size_t Scaled(std::size_t base, double scale, std::size_t floor);

/// Workload entry points. `prepare` writes inputs the timed process
/// loads (only reanalyze has any); `run` does set-up, the timed phase
/// and the checks, and in a traced run the layer-by-layer replay.
int PrepareReanalyze(const Options& options);
void RunCampaign(const Options& options, Result& result);
void RunReanalyze(const Options& options, Result& result);
void RunStoreCampaign(const Options& options, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
