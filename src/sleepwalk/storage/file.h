// Crash-safe storage seam.
//
// Every byte the measurement system persists — checkpoints, datasets,
// flushed telemetry — goes through this Env abstraction instead of raw
// iostream/POSIX calls (sleeplint's `no-raw-fs` rule bans those outside
// storage/). Three implementations share one contract:
//
//   * RealEnv — POSIX files with the full durability discipline:
//     write → fsync(file) → close → rename → fsync(directory). An
//     interrupted AtomicWrite leaves the previous file intact, never a
//     half-written one (O_TMPFILE-free, portable to any POSIX fs).
//   * MemEnv — an in-process filesystem for tests and benches; same
//     semantics, no disk.
//   * FaultyEnv (storage/faulty_env.h) — decorates either with
//     util/failpoint.h sites, so crash/ENOSPC/short-write behaviour is
//     provable rather than assumed.
//
// Errors carry (operation, path, errno): a campaign that loses its disk
// reports *which* syscall on *which* file said what, instead of a bare
// `false`.
#ifndef SLEEPWALK_STORAGE_FILE_H_
#define SLEEPWALK_STORAGE_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sleepwalk::storage {

/// Outcome of a storage operation. Default-constructed == success.
struct Error {
  std::string op;      ///< failing operation ("append", "rename", ...)
  std::string path;    ///< file the operation targeted
  int err = 0;         ///< errno when the OS supplied one
  std::string detail;  ///< extra context ("short write (3/6 bytes)")

  bool ok() const noexcept { return op.empty(); }
  /// "append /tmp/x.slck: Input/output error (short write)"
  std::string ToString() const;
};

/// A read-only view of a whole file, either zero-copy (mmap, RealEnv)
/// or an owned heap copy (the portable fallback every other Env uses).
/// Movable, not copyable; unmaps/frees on destruction. The bytes are
/// immutable and stay valid for the region's lifetime — columnar
/// readers (storage/columnar.h) hand out typed spans into them.
class MappedRegion {
 public:
  MappedRegion() = default;
  ~MappedRegion() { Reset(); }
  MappedRegion(MappedRegion&& other) noexcept { *this = std::move(other); }
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  std::size_t size() const noexcept { return size_; }
  /// True when the bytes are a live mmap rather than a heap copy.
  bool zero_copy() const noexcept { return map_base_ != nullptr; }

  /// Releases the mapping / copy; bytes() becomes empty.
  void Reset() noexcept;

  /// Takes ownership of an existing mmap (munmap'd on Reset).
  void AdoptMapping(void* base, std::size_t length) noexcept;
  /// Takes ownership of a heap copy (the ReadAll fallback).
  void AdoptCopy(std::vector<std::uint8_t> bytes) noexcept;

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_base_ = nullptr;  ///< munmap target; null for copies
  std::size_t map_length_ = 0;
  std::vector<std::uint8_t> owned_;
};

/// An open file being written sequentially.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Error Append(std::span<const std::uint8_t> data) = 0;
  /// Flushes buffered bytes to stable storage (fsync for RealEnv).
  virtual Error Sync() = 0;
  /// Closes the descriptor; further calls are invalid. Idempotent.
  virtual Error Close() = 0;
};

/// The filesystem seam. All paths are plain strings; directories are
/// never created implicitly.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates (truncating) `path` for writing.
  virtual std::unique_ptr<WritableFile> Create(const std::string& path,
                                               Error& error) = 0;
  /// Reads the whole file into `out` (replaced, not appended).
  virtual Error ReadAll(const std::string& path,
                        std::vector<std::uint8_t>& out) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Error Rename(const std::string& from, const std::string& to) = 0;
  /// Makes `to` refer to `from`'s current bytes (hard link where the
  /// filesystem supports it, a copy otherwise). Fails if `to` exists.
  virtual Error Link(const std::string& from, const std::string& to) = 0;
  virtual Error Remove(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;
  /// Durably commits a directory's entry table (fsync of the directory
  /// fd; a no-op where the concept does not apply).
  virtual Error SyncDir(const std::string& dir) = 0;
  /// Names (not paths) of the directory's entries, sorted.
  virtual std::vector<std::string> List(const std::string& dir) = 0;

  /// Maps the whole file read-only into `out`. RealEnv overrides this
  /// with a true zero-copy mmap; the base implementation (MemEnv and
  /// any decorator's inner fallback) degrades to ReadAll + an owned
  /// copy, so every Env satisfies the same contract and callers never
  /// branch on capability. The region's bytes reflect the file at call
  /// time; concurrent rewrites of the same *path* are safe because
  /// AtomicWrite replaces via rename and the old inode stays alive
  /// under the mapping.
  virtual Error Map(const std::string& path, MappedRegion& out);
};

/// The process-wide POSIX environment.
Env& RealEnvInstance();

/// In-memory Env for tests and benches: full paths as keys, rename and
/// link with POSIX semantics, SyncDir a no-op. Thread-safe. An open
/// file writes through: each Append extends the published entry by the
/// appended bytes only, so what every op publishes is exactly the
/// file's bytes so far and a multi-Append save costs its size, not its
/// size times its Append count.
class MemEnv final : public Env {
 public:
  MemEnv();
  ~MemEnv() override;

  std::unique_ptr<WritableFile> Create(const std::string& path,
                                       Error& error) override;
  Error ReadAll(const std::string& path,
                std::vector<std::uint8_t>& out) override;
  Error Rename(const std::string& from, const std::string& to) override;
  Error Link(const std::string& from, const std::string& to) override;
  Error Remove(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Error SyncDir(const std::string& dir) override;
  std::vector<std::string> List(const std::string& dir) override;

  struct Impl;  // public so the file handle implementation can reach it

 private:
  std::unique_ptr<Impl> impl_;
};

/// Everything up to the last '/', or "." for a bare filename.
std::string DirName(const std::string& path);

/// Appends a file's content to the open temp file (AtomicWrite's fill
/// form); returns the first failed Append's Error.
using FillFn = std::function<Error(WritableFile&)>;

/// Durable atomic replacement of `path` with what `fill` appends:
///   create path.tmp → fill (append) → sync → close → rename → sync(dir).
/// On ANY failure the temp file is removed and the previous `path`
/// content is untouched; the returned Error names the failing step and
/// carries its errno (the .tmp-leak fix over the old checkpoint
/// writer). A CrashInjected from a faulty env propagates — that is the
/// simulated power cut, and the temp file deliberately stays behind
/// exactly as a real crash would leave it. `fill` may Append any number
/// of times (storage::ColumnarWriter::WriteTo streams a container).
Error AtomicWrite(Env& env, const std::string& path, const FillFn& fill);

/// AtomicWrite of one buffer: `fill` is a single Append of `bytes`.
Error AtomicWrite(Env& env, const std::string& path,
                  std::span<const std::uint8_t> bytes);

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_FILE_H_
