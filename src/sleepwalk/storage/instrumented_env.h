// InstrumentedEnv: a storage::Env decorator that counts every VFS
// operation into an obs::Context.
//
// The decorator is exactly pass-through — same return values, same
// exceptions (a FaultyEnv's CrashInjected unwinds straight through), no
// extra Env calls — so wrapping changes no persisted byte and no
// failpoint ordinal. The campaign engine wraps the
// checkpoint store's env with this, which makes the op/byte counters a
// live census of checkpoint I/O (the PR 6 durability-tax story, now
// observable on a running campaign).
//
// Determinism: operation and byte counters are pure functions of the
// storage op sequence, which is deterministic for same-seed runs, so
// they are safe in the campaign registry. Latency histograms need a
// wall clock; the clock is *injected* (`NowNsFn`) so this layer stays
// clock-free under sleeplint, and callers only supply one for
// non-deterministic runs — without it no latency instrument is even
// created, keeping deterministic exposition byte-stable.
#ifndef SLEEPWALK_STORAGE_INSTRUMENTED_ENV_H_
#define SLEEPWALK_STORAGE_INSTRUMENTED_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sleepwalk/obs/context.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk::storage {

/// The decorator. Inner env must outlive it. Thread-safe to the same
/// degree as the inner env (instruments are atomic / internally locked).
class InstrumentedEnv final : public Env {
 public:
  /// Monotonic nanoseconds; empty = no latency histograms.
  using NowNsFn = std::function<std::uint64_t()>;

  InstrumentedEnv(Env& inner, const obs::Context& context,
                  NowNsFn now_ns = {});

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
  Error Map(const std::string& path, MappedRegion& out) override;

 private:
  friend class InstrumentedFile;

  void NoteError(const Error& error) noexcept {
    if (!error.ok() && errors_ != nullptr) errors_->Inc();
  }

  Env& inner_;
  NowNsFn now_ns_;
  obs::Counter* creates_ = nullptr;
  obs::Counter* appends_ = nullptr;
  obs::Counter* syncs_ = nullptr;
  obs::Counter* reads_ = nullptr;
  obs::Counter* maps_ = nullptr;
  obs::Counter* renames_ = nullptr;
  obs::Counter* links_ = nullptr;
  obs::Counter* removes_ = nullptr;
  obs::Counter* dir_syncs_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Histogram* sync_seconds_ = nullptr;  ///< fsync latency
};

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_INSTRUMENTED_ENV_H_
