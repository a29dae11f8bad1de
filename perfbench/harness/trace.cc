#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

thread_local ThreadTrace* current_trace = nullptr;

bool IsLayer(const char* name) { return std::strchr(name, '.') != nullptr; }

}  // namespace

std::size_t ThreadTrace::Begin(const char* name) {
  SpanRecord span;
  span.name = name;
  span.id = (static_cast<std::uint64_t>(tid_) << 40) | (spans_.size() + 1);
  span.parent = current();
  span.tid = tid_;
  span.start_ns = MonoNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void ThreadTrace::End(std::size_t index) {
  spans_[index].end_ns = MonoNs();
  open_.pop_back();
}

std::uint64_t ThreadTrace::current() const {
  return open_.empty() ? root_parent_ : spans_[open_.back()].id;
}

ThreadTrace& Tracer::NewThread(std::uint64_t parent) {
  std::lock_guard<std::mutex> lock{mu_};
  threads_.push_back(std::make_unique<ThreadTrace>(
      static_cast<std::uint32_t>(threads_.size() + 1), parent));
  return *threads_.back();
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<SpanRecord> all;
  for (const auto& thread : threads_) {
    all.insert(all.end(), thread->spans().begin(), thread->spans().end());
  }
  return all;
}

ThreadTrace* CurrentTrace() { return current_trace; }

BindTrace::BindTrace(ThreadTrace* trace) : previous_(current_trace) {
  current_trace = trace;
}

BindTrace::~BindTrace() { current_trace = previous_; }

std::uint64_t ScopedSpan::id() const {
  return trace_ != nullptr ? trace_->spans()[index_].id : 0;
}

Attribution Attribute(const std::vector<SpanRecord>& spans,
                      std::uint64_t root) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace(spans[i].id, i);
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  Attribution out;
  const auto root_it = by_id.find(root);
  if (root_it == by_id.end()) return out;
  const SpanRecord& root_span = spans[root_it->second];
  out.wall_s = static_cast<double>(root_span.end_ns - root_span.start_ns) * 1e-9;

  std::deque<std::size_t> queue{root_it->second};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  while (!queue.empty()) {
    const SpanRecord& span = spans[queue.front()];
    queue.pop_front();
    intervals.clear();
    if (const auto kids = children.find(span.id); kids != children.end()) {
      for (const std::size_t k : kids->second) {
        const std::uint64_t begin = std::max(span.start_ns, spans[k].start_ns);
        const std::uint64_t end = std::min(span.end_ns, spans[k].end_ns);
        if (begin < end) intervals.emplace_back(begin, end);
        queue.push_back(k);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;
    for (const auto& [begin, end] : intervals) {
      const std::uint64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const double self =
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
    if (IsLayer(span.name)) {
      out.self_s[span.name] += self;
    } else {
      out.unattributed_s += self;
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans,
                      std::uint64_t origin_ns, std::string& error) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    error = "cannot open " + path;
    return false;
  }
  // Spans of one thread are stored in begin order and nest properly, so
  // a stack replays them as matched B/E pairs.
  std::map<std::uint32_t, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_tid[spans[i].tid].push_back(i);
  }
  bool first = true;
  char buffer[160];
  out << "[";
  for (const auto& [tid, indices] : by_tid) {
    std::uint64_t last_ns = 0;
    bool thread_first = true;
    const auto emit = [&](const SpanRecord& span, bool begin) {
      std::uint64_t at = (begin ? span.start_ns : span.end_ns) - origin_ns;
      if (!thread_first && at <= last_ns) at = last_ns + 1;
      thread_first = false;
      last_ns = at;
      std::snprintf(buffer, sizeof buffer,
                    "%s\n{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%llu.%03llu,"
                    "\"pid\":1,\"tid\":%u",
                    first ? "" : ",", span.name, begin ? "B" : "E",
                    static_cast<unsigned long long>(at / 1000),
                    static_cast<unsigned long long>(at % 1000), tid);
      out << buffer;
      if (begin) {
        std::snprintf(buffer, sizeof buffer,
                      ",\"args\":{\"id\":%llu,\"parent\":%llu}",
                      static_cast<unsigned long long>(span.id),
                      static_cast<unsigned long long>(span.parent));
        out << buffer;
      }
      out << "}";
      first = false;
    };
    std::vector<std::size_t> open;
    for (const std::size_t i : indices) {
      while (!open.empty() && spans[open.back()].id != spans[i].parent) {
        emit(spans[open.back()], false);
        open.pop_back();
      }
      emit(spans[i], true);
      open.push_back(i);
    }
    while (!open.empty()) {
      emit(spans[open.back()], false);
      open.pop_back();
    }
  }
  out << "\n]\n";
  out.close();
  if (!out) {
    error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
