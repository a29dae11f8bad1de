// The benchmark's counting and timing storage::Env decorator.
//
// Forwards every call unchanged to the wrapped Env (the real POSIX one
// in every run) and records per-operation counts, bytes and busy time,
// split by what the file is: campaign checkpoint, dataset or store
// snapshot, told apart by file name. Errors are counted and the first
// is kept, so no returned storage::Error goes unnoticed. On a traced
// thread every operation is also a "storage.*" span.
#ifndef PERFBENCH_HARNESS_COUNTING_ENV_H_
#define PERFBENCH_HARNESS_COUNTING_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "sleepwalk/storage/file.h"

namespace perfbench {

/// File names the workloads write; the decorator keys its split on them.
inline constexpr const char* kCheckpointFile = "campaign.slck";
inline constexpr const char* kDatasetFile = "dataset.slpw";
inline constexpr const char* kSnapshotFile = "store.slck";

enum class FileKind : std::size_t { kCheckpoint, kDataset, kSnapshot, kOther };
inline constexpr std::size_t kFileKinds = 4;

/// Operation classes the per-layer storage metrics report.
enum class OpClass : std::size_t { kAppend, kSync, kRename, kOther };
inline constexpr std::size_t kOpClasses = 4;

/// A plain copy of the counters at one moment.
struct IoSnapshot {
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;  ///< ReadAll bytes plus mapped bytes
  std::array<std::uint64_t, kOpClasses> op_ns{};
  std::array<std::uint64_t, kFileKinds> kind_bytes_written{};
  std::array<std::uint64_t, kFileKinds> kind_busy_ns{};
  std::array<std::uint64_t, kFileKinds> kind_renames{};

  /// Counter differences `*this - before`.
  IoSnapshot Since(const IoSnapshot& before) const;
  std::uint64_t bytes_moved() const { return bytes_written + bytes_read; }
  double busy_seconds() const {
    std::uint64_t ns = 0;
    for (const auto op : op_ns) ns += op;
    return static_cast<double>(ns) * 1e-9;
  }
};

class CountingEnv final : public sleepwalk::storage::Env {
 public:
  explicit CountingEnv(sleepwalk::storage::Env& inner) : inner_(inner) {}

  std::unique_ptr<sleepwalk::storage::WritableFile> Create(
      const std::string& path, sleepwalk::storage::Error& error) override;
  sleepwalk::storage::Error ReadAll(const std::string& path,
                                    std::vector<std::uint8_t>& out) override;
  sleepwalk::storage::Error Rename(const std::string& from,
                                   const std::string& to) override;
  sleepwalk::storage::Error Link(const std::string& from,
                                 const std::string& to) override;
  sleepwalk::storage::Error Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  sleepwalk::storage::Error SyncDir(const std::string& dir) override;
  std::vector<std::string> List(const std::string& dir) override;
  sleepwalk::storage::Error Map(const std::string& path,
                                sleepwalk::storage::MappedRegion& out) override;

  IoSnapshot Snapshot() const;
  /// The first error any operation returned; empty when none did.
  std::string first_error() const;

  /// Records one finished operation (also used by the file wrapper).
  void Note(OpClass op, FileKind kind, std::uint64_t ns,
            const sleepwalk::storage::Error& error);
  void NoteError(const sleepwalk::storage::Error& error);
  void AddWritten(FileKind kind, std::uint64_t bytes);

 private:
  sleepwalk::storage::Env& inner_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::array<std::atomic<std::uint64_t>, kOpClasses> op_ns_{};
  std::array<std::atomic<std::uint64_t>, kFileKinds> kind_bytes_written_{};
  std::array<std::atomic<std::uint64_t>, kFileKinds> kind_busy_ns_{};
  std::array<std::atomic<std::uint64_t>, kFileKinds> kind_renames_{};
  mutable std::mutex error_mu_;
  std::string first_error_;
};

/// Which workload file `path` is (by its name, ignoring .tmp/.g<N>).
FileKind KindOf(const std::string& path);

/// The storage.* per-layer metrics of `io`.
void AddStorageLayers(const IoSnapshot& io, Result& result);

/// A check detail: empty for success, the error text otherwise.
inline std::string ErrorText(const sleepwalk::storage::Error& error) {
  return error.ok() ? std::string{} : error.ToString();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COUNTING_ENV_H_
