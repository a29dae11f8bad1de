// Campaign checkpoint persistence.
//
// A killed A_12w-style campaign used to lose everything; a checkpoint
// makes the campaign resumable *bit-identically*. The campaign engine
// (core/parallel_executor.h) checkpoints only at block boundaries, so a
// checkpoint is an exact block prefix: the completed per-block analyses
// at full double precision, the aggregate counts, the resilience
// statistics (probe accounting included — the only transport state
// there is), and the index of the first unfinished block.
//
// Format: SLCK v3, the storage/columnar.h container (magic "SLCK",
// kind kCheckpointKind). A save streams the container straight into
// storage/file.h's AtomicWrite from a CheckpointView — a borrowed span
// over the campaign's own analyses — so no copy of the finished series
// exists on the save path; EncodeCheckpoint is the same bytes as one
// buffer. The header carries the campaign
// fingerprint and the generation; the columns are
//   META        u8 blob: format version (mixed-version refusal), diurnal
//               counts, resilience stats, next_block
//   QUARANTINED u32 abandoned prefix indices
//   INFLIGHT    u8 blob, one flag byte, always written 0
//   TRANSPORT   u8 blob, always written empty
//   COMPLETED   one fixed-width column per BlockAnalysis field (one row
//               per finished block; the six estimator columns split
//               BlockAnalysis::estimator), and three concatenated blobs
//               (series values, outage starts, outage episodes) indexed
//               by the per-row length columns
// INFLIGHT and TRANSPORT once carried a retired engine's mid-block
// analyzer state and transport snapshot. They stay in the layout so
// the file bytes do not change; decoding reads only the flag byte and
// the blob's presence, and resume refuses a file that has either set.
//
// Every column, the header and the directory are CRC32C-framed, so a
// torn write, a truncation, or a bit flip is *detected* — and the
// CheckpointStore below *recovers*: it rotates generation-numbered
// hard-linked snapshots (<path>.g<N>, keep last K) and falls back to
// the newest intact generation when the primary file is damaged,
// quarantining the corrupt file as <name>.corrupt for post-mortem.
//
// v3 is the only format written or read. SLCK v1 (unframed) and v2
// (CRC-framed row sections) files are refused with version_refused, so
// the store quarantines them like any unreadable candidate and the
// campaign starts fresh. The fingerprint binds a checkpoint to its
// campaign: resuming with different targets, rounds, seed, or schedule
// is refused rather than silently producing a franken-dataset. The
// generation number is the checkpoint's own checkpoints_written count,
// so crashed and uninterrupted timelines number their snapshots
// identically.
#ifndef SLEEPWALK_CORE_CHECKPOINT_H_
#define SLEEPWALK_CORE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sleepwalk/core/block_analyzer.h"
#include "sleepwalk/core/pipeline.h"
#include "sleepwalk/report/resilience.h"
#include "sleepwalk/storage/file.h"

namespace sleepwalk::core {

/// The checkpoint format version: the storage/columnar.h container,
/// loaded through storage::Env::Map with one bulk copy per column.
inline constexpr std::uint32_t kCheckpointVersionColumnar = 3;

/// Everything a resumed campaign needs.
struct Checkpoint {
  std::uint64_t fingerprint = 0;
  DiurnalCounts counts;
  report::ResilienceStats stats;
  /// Completed analyses, each with its final estimator state, so a
  /// resumed campaign continues the exact same trajectories.
  std::vector<BlockAnalysis> completed;
  std::vector<std::uint32_t> quarantined;  ///< prefix indices abandoned
  std::uint64_t next_block = 0;  ///< index of the first unfinished target

  /// Decode-only provenance: the INFLIGHT flag byte and the TRANSPORT
  /// blob as read. The encoders ignore both (they write 0 and empty);
  /// either one set marks a file from the retired mid-block engine,
  /// which resume refuses.
  bool has_inflight = false;
  std::vector<std::uint8_t> transport_state;
};

/// What a decode attempt saw — the forensic record slck_fsck prints and
/// the recovery metrics count.
struct CheckpointLoadReport {
  bool found = false;          ///< file existed and was readable
  bool bad_magic = false;
  std::uint32_t version = 0;   ///< header version, when readable
  bool version_refused = false;  ///< unknown or mixed version
  int corrupt_sections = 0;    ///< CRC failures, truncations, framing
  std::uint64_t generation = 0;
  std::string detail;          ///< first failure, human-readable
};

/// Recovery accounting for one campaign start (exported on
/// CampaignOutcome and as supervisor_checkpoint_* metrics).
struct RecoveryEvents {
  std::uint64_t recoveries = 0;  ///< resumed from a fallback generation
  std::uint64_t corrupt_sections = 0;
  std::uint64_t generations_discarded = 0;
};

/// Identity of a campaign: seed, rounds, schedule, and the target list.
/// Two campaigns share a fingerprint iff a checkpoint from one is a valid
/// resume point for the other.
std::uint64_t CampaignFingerprint(const std::vector<BlockTarget>& targets,
                                  std::int64_t n_rounds, std::uint64_t seed,
                                  const AnalyzerConfig& config);

/// What a checkpoint save reads: the Checkpoint fields, with the
/// completed analyses borrowed. `completed` must outlive the save.
struct CheckpointView {
  std::uint64_t fingerprint = 0;
  DiurnalCounts counts;
  report::ResilienceStats stats;
  std::span<const BlockAnalysis> completed;
  std::vector<std::uint32_t> quarantined;  ///< prefix indices abandoned
  std::uint64_t next_block = 0;
};

/// Serializes `checkpoint` as an SLCK v3 container (generation =
/// stats.checkpoints_written). Deterministic: two equal checkpoints
/// encode byte-identically, so resumed and uninterrupted timelines
/// converge to the same file.
std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint);

/// EncodeCheckpoint for callers that name the format explicitly; throws
/// std::invalid_argument for any `format` but kCheckpointVersionColumnar.
std::vector<std::uint8_t> EncodeCheckpointAs(const Checkpoint& checkpoint,
                                             std::uint32_t format);

/// Decodes SLCK v3 bytes; nullopt on bad magic, any other version
/// (v1 and v2 included, with version_refused set), truncation, or any
/// CRC failure (details in `report`).
std::optional<Checkpoint> DecodeCheckpoint(
    std::span<const std::uint8_t> bytes,
    CheckpointLoadReport* report = nullptr);

/// Reads one checkpoint file through `env`; nullopt on any I/O or
/// decode failure.
std::optional<Checkpoint> ReadCheckpoint(
    storage::Env& env, const std::string& path,
    CheckpointLoadReport* report = nullptr);

/// Generation-rotating checkpoint store.
///
/// The newest checkpoint always lives at exactly `path` (so external
/// tooling and byte-equality tests see one canonical file); the last
/// `keep` generations additionally survive as hard links `path.g<N>`.
/// Load() prefers the primary file and walks generations newest-first
/// when it is corrupt — the self-healing path.
class CheckpointStore {
 public:
  /// `keep` <= 1 disables rotation (primary file only).
  CheckpointStore(storage::Env& env, std::string path, int keep);

  /// Durably persists `checkpoint` and rotates generations. The
  /// container streams from the view's borrowed memory to the temp
  /// file; no image of it is built.
  storage::Error Save(const CheckpointView& checkpoint);
  /// Save of an owned Checkpoint (benches and tests).
  storage::Error Save(const Checkpoint& checkpoint);

  /// Newest intact checkpoint whose fingerprint matches. Corrupt
  /// candidates are quarantined (renamed *.corrupt) and counted in
  /// `events`; a fallback hit counts as a recovery. When the primary
  /// file is absent the campaign is considered deliberately fresh and
  /// stale generations are discarded rather than resurrected.
  std::optional<Checkpoint> Load(std::uint64_t fingerprint,
                                 RecoveryEvents& events);

  /// Removes every retained generation (and quarantined remnants).
  void DiscardGenerations();

  const std::string& path() const noexcept { return path_; }

 private:
  /// (generation, full path) of retained generation files, ascending.
  std::vector<std::pair<std::uint64_t, std::string>> Generations();

  storage::Env& env_;
  std::string path_;
  std::string dir_;
  std::string base_;  ///< file name of `path_` within `dir_`
  int keep_;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_CHECKPOINT_H_
