#include "counting_env.h"

#include <type_traits>
#include <utility>

#include "bench.h"
#include "trace.h"

namespace perfbench {

namespace storage = sleepwalk::storage;

namespace {

// A directory sync belongs to the file whose rename it makes durable:
// the last file this thread touched.
thread_local FileKind last_kind = FileKind::kOther;

constexpr const char* kSpanName[kOpClasses] = {
    "storage.append", "storage.sync", "storage.rename", "storage.other"};

/// Times one forwarded call and records it.
template <typename Fn>
auto Timed(CountingEnv& env, OpClass op, FileKind kind, Fn&& fn) {
  const ScopedSpan span{kSpanName[static_cast<std::size_t>(op)]};
  const std::uint64_t start = MonoNs();
  auto result = fn();
  const std::uint64_t ns = MonoNs() - start;
  if constexpr (std::is_same_v<decltype(result), storage::Error>) {
    env.Note(op, kind, ns, result);
  } else {
    env.Note(op, kind, ns, storage::Error{});
  }
  return result;
}

class CountingFile final : public storage::WritableFile {
 public:
  CountingFile(CountingEnv& env, FileKind kind,
               std::unique_ptr<storage::WritableFile> inner)
      : env_(env), kind_(kind), inner_(std::move(inner)) {}

  storage::Error Append(std::span<const std::uint8_t> data) override {
    last_kind = kind_;
    auto error = Timed(env_, OpClass::kAppend, kind_,
                       [&] { return inner_->Append(data); });
    if (error.ok()) env_.AddWritten(kind_, data.size());
    return error;
  }
  storage::Error Sync() override {
    last_kind = kind_;
    return Timed(env_, OpClass::kSync, kind_, [&] { return inner_->Sync(); });
  }
  storage::Error Close() override {
    last_kind = kind_;
    return Timed(env_, OpClass::kOther, kind_,
                 [&] { return inner_->Close(); });
  }

 private:
  CountingEnv& env_;
  FileKind kind_;
  std::unique_ptr<storage::WritableFile> inner_;
};

}  // namespace

FileKind KindOf(const std::string& path) {
  const auto slash = path.rfind('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto starts = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts(kCheckpointFile)) return FileKind::kCheckpoint;
  if (starts(kDatasetFile)) return FileKind::kDataset;
  if (starts(kSnapshotFile)) return FileKind::kSnapshot;
  return FileKind::kOther;
}

IoSnapshot IoSnapshot::Since(const IoSnapshot& before) const {
  IoSnapshot d;
  d.ops = ops - before.ops;
  d.errors = errors - before.errors;
  d.bytes_written = bytes_written - before.bytes_written;
  d.bytes_read = bytes_read - before.bytes_read;
  for (std::size_t i = 0; i < kOpClasses; ++i) {
    d.op_ns[i] = op_ns[i] - before.op_ns[i];
  }
  for (std::size_t k = 0; k < kFileKinds; ++k) {
    d.kind_bytes_written[k] =
        kind_bytes_written[k] - before.kind_bytes_written[k];
    d.kind_busy_ns[k] = kind_busy_ns[k] - before.kind_busy_ns[k];
    d.kind_renames[k] = kind_renames[k] - before.kind_renames[k];
  }
  return d;
}

void CountingEnv::Note(OpClass op, FileKind kind, std::uint64_t ns,
                       const storage::Error& error) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  op_ns_[static_cast<std::size_t>(op)].fetch_add(ns,
                                                 std::memory_order_relaxed);
  kind_busy_ns_[static_cast<std::size_t>(kind)].fetch_add(
      ns, std::memory_order_relaxed);
  NoteError(error);
}

void CountingEnv::NoteError(const storage::Error& error) {
  if (error.ok()) return;
  errors_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock{error_mu_};
  if (first_error_.empty()) first_error_ = error.ToString();
}

void CountingEnv::AddWritten(FileKind kind, std::uint64_t bytes) {
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  kind_bytes_written_[static_cast<std::size_t>(kind)].fetch_add(
      bytes, std::memory_order_relaxed);
}

std::unique_ptr<storage::WritableFile> CountingEnv::Create(
    const std::string& path, storage::Error& error) {
  const FileKind kind = KindOf(path);
  last_kind = kind;
  auto file = Timed(*this, OpClass::kOther, kind,
                    [&] { return inner_.Create(path, error); });
  NoteError(error);
  if (file == nullptr) return nullptr;
  return std::make_unique<CountingFile>(*this, kind, std::move(file));
}

storage::Error CountingEnv::ReadAll(const std::string& path,
                                    std::vector<std::uint8_t>& out) {
  const FileKind kind = KindOf(path);
  last_kind = kind;
  auto error = Timed(*this, OpClass::kOther, kind,
                     [&] { return inner_.ReadAll(path, out); });
  if (error.ok()) bytes_read_.fetch_add(out.size(), std::memory_order_relaxed);
  return error;
}

storage::Error CountingEnv::Rename(const std::string& from,
                                   const std::string& to) {
  const FileKind kind = KindOf(to);
  last_kind = kind;
  auto error = Timed(*this, OpClass::kRename, kind,
                     [&] { return inner_.Rename(from, to); });
  if (error.ok()) {
    kind_renames_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  return error;
}

storage::Error CountingEnv::Link(const std::string& from,
                                 const std::string& to) {
  const FileKind kind = KindOf(to);
  last_kind = kind;
  return Timed(*this, OpClass::kRename, kind,
               [&] { return inner_.Link(from, to); });
}

storage::Error CountingEnv::Remove(const std::string& path) {
  const FileKind kind = KindOf(path);
  last_kind = kind;
  return Timed(*this, OpClass::kOther, kind,
               [&] { return inner_.Remove(path); });
}

bool CountingEnv::Exists(const std::string& path) {
  const FileKind kind = KindOf(path);
  last_kind = kind;
  return Timed(*this, OpClass::kOther, kind,
               [&] { return inner_.Exists(path); });
}

storage::Error CountingEnv::SyncDir(const std::string& dir) {
  return Timed(*this, OpClass::kSync, last_kind,
               [&] { return inner_.SyncDir(dir); });
}

std::vector<std::string> CountingEnv::List(const std::string& dir) {
  return Timed(*this, OpClass::kOther, last_kind,
               [&] { return inner_.List(dir); });
}

storage::Error CountingEnv::Map(const std::string& path,
                                storage::MappedRegion& out) {
  const FileKind kind = KindOf(path);
  last_kind = kind;
  auto error = Timed(*this, OpClass::kOther, kind,
                     [&] { return inner_.Map(path, out); });
  if (error.ok()) bytes_read_.fetch_add(out.size(), std::memory_order_relaxed);
  return error;
}

IoSnapshot CountingEnv::Snapshot() const {
  IoSnapshot s;
  s.ops = ops_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kOpClasses; ++i) {
    s.op_ns[i] = op_ns_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t k = 0; k < kFileKinds; ++k) {
    s.kind_bytes_written[k] =
        kind_bytes_written_[k].load(std::memory_order_relaxed);
    s.kind_busy_ns[k] = kind_busy_ns_[k].load(std::memory_order_relaxed);
    s.kind_renames[k] = kind_renames_[k].load(std::memory_order_relaxed);
  }
  return s;
}

void AddStorageLayers(const IoSnapshot& io, Result& result) {
  const auto seconds = [&](OpClass op) {
    return static_cast<double>(io.op_ns[static_cast<std::size_t>(op)]) * 1e-9;
  };
  result.AddLayer("storage.ops", static_cast<double>(io.ops), "count");
  result.AddLayer("storage.append_s", seconds(OpClass::kAppend), "s");
  result.AddLayer("storage.sync_s", seconds(OpClass::kSync), "s");
  result.AddLayer("storage.rename_s", seconds(OpClass::kRename), "s");
  result.AddLayer("storage.other_s", seconds(OpClass::kOther), "s");
}

std::string CountingEnv::first_error() const {
  std::lock_guard<std::mutex> lock{error_mu_};
  return first_error_;
}

}  // namespace perfbench
