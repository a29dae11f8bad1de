// In-memory span recorder for the traced run.
//
// Spans (name, start, end, parent, thread) are appended to a per-thread
// buffer with no locking and written out only when the run ends. A span
// whose name contains a '.' is a layer span named after the module it
// times ("ts.trim", "sim.probe"); a name without one ("replay",
// "block") is a container whose self time counts as unattributed.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< string literal; outlives the tracer
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = none
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// One thread's span buffer. Only the owning thread touches it.
class ThreadTrace {
 public:
  ThreadTrace(std::uint32_t tid, std::uint64_t root_parent)
      : tid_(tid), root_parent_(root_parent) {}

  std::size_t Begin(const char* name);
  void End(std::size_t index);
  /// Id of the innermost open span (the parent a new span would get).
  std::uint64_t current() const;
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::uint64_t root_parent_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// Owns every thread's buffer for one traced run.
class Tracer {
 public:
  /// A buffer for a new thread whose top-level spans get `parent`.
  /// Thread-safe; the buffer lives as long as the tracer.
  ThreadTrace& NewThread(std::uint64_t parent);
  /// Every span of every thread; call after the threads have finished.
  std::vector<SpanRecord> Collect() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// The calling thread's buffer; null when the thread is not traced.
ThreadTrace* CurrentTrace();

/// Binds `trace` to the calling thread for the binding's lifetime.
class BindTrace {
 public:
  explicit BindTrace(ThreadTrace* trace);
  ~BindTrace();
  BindTrace(const BindTrace&) = delete;
  BindTrace& operator=(const BindTrace&) = delete;

 private:
  ThreadTrace* previous_;
};

/// RAII span on the calling thread's buffer; a no-op when untraced.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) index_ = trace_->Begin(name);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when untraced): the parent for other threads.
  std::uint64_t id() const;

 private:
  ThreadTrace* trace_;
  std::size_t index_ = 0;
};

/// Self-time ledger of one subtree of spans.
struct Attribution {
  double wall_s = 0.0;          ///< the root span's duration
  double unattributed_s = 0.0;  ///< self time of container spans
  std::map<std::string, double> self_s;  ///< layer span name -> self time

  double coverage() const {
    return wall_s > 0.0 ? 1.0 - unattributed_s / wall_s : 0.0;
  }
  double Self(const std::string& name) const {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
};

/// Attributes the subtree under span `root`: a span's self time is its
/// duration minus the union of its children's intervals (children on
/// any thread).
Attribution Attribute(const std::vector<SpanRecord>& spans,
                      std::uint64_t root);

/// Writes `spans` as a Chrome trace-event array of B/E pairs (the form
/// tools/jsonl_check --chrome-trace validates). Timestamps are
/// microseconds since `origin_ns`; where two events of one thread fall
/// on the same nanosecond the later one is moved 1 ns on, because the
/// format wants strictly increasing times per thread.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans,
                      std::uint64_t origin_ns, std::string& error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
