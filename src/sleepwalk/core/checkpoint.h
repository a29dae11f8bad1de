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
// Format "SLCK" v2 (little-endian; encode/decode are pure in-memory
// transforms over storage/bytes.h, moved atomically by storage/file.h):
//
//   magic "SLCK"
//   | u32 version | u64 campaign_fingerprint | u64 generation
//   | u32 n_sections | u32 header_crc32c            (over the 24 bytes
//                                                    after the magic)
//   then n_sections framed sections:
//   u32 section_id | u64 payload_len | u32 payload_crc32c | payload
//
// Sections (every one present exactly once):
//   META        format version (mixed-version refusal), diurnal counts,
//               resilience stats, next_block
//   COMPLETED   finished BlockAnalysis records (full f64 series)
//   QUARANTINED abandoned prefix indices
//   INFLIGHT    one flag byte, always written 0
//   TRANSPORT   always written empty
// INFLIGHT and TRANSPORT once carried a retired engine's mid-block
// analyzer state and transport snapshot. They stay in the layout so old
// and new binaries read each other's files; decoding reads only the
// flag byte and the blob's presence, and resume refuses a file that has
// either set.
//
// Every section is independently CRC32C-framed (net/checksum.h), so a
// torn write, a truncation, or a bit flip is *detected* — and the
// CheckpointStore below *recovers*: it rotates generation-numbered
// hard-linked snapshots (<path>.g<N>, keep last K) and falls back to
// the newest intact generation when the primary file is damaged,
// quarantining the corrupt file as <name>.corrupt for post-mortem.
//
// SLCK v3 columnar containers (storage/columnar.h) — the paper-scale
// layout and the SupervisorConfig default — read back through the same
// decoder; v1 files (the pre-checksum format) are refused. The
// fingerprint binds a checkpoint to its campaign:
// resuming with different targets, rounds, seed, or schedule is refused
// rather than silently producing a franken-dataset. The generation
// number is the checkpoint's own checkpoints_written count, so crashed
// and uninterrupted timelines number their snapshots identically.
#ifndef SLEEPWALK_CORE_CHECKPOINT_H_
#define SLEEPWALK_CORE_CHECKPOINT_H_

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

/// Row-oriented checkpoint format version; bump on any layout change.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Columnar checkpoint format version (the storage/columnar.h container,
/// kind kCheckpointKind). Same magic and trust discipline as v2 but the
/// COMPLETED section becomes fixed-width per-block columns plus three
/// concatenated blobs (series values, outage starts, outage episodes),
/// so a paper-scale checkpoint loads through storage::Env::Map with one
/// bulk copy per column instead of one decode per field per record.
/// Campaigns pick it via SupervisorConfig::checkpoint_format (3 is the
/// default); the decoder handles v2 and v3 transparently.
inline constexpr std::uint32_t kCheckpointVersionColumnar = 3;

/// Everything a resumed campaign needs.
struct Checkpoint {
  std::uint64_t fingerprint = 0;
  DiurnalCounts counts;
  report::ResilienceStats stats;
  std::vector<BlockAnalysis> completed;
  /// Final estimator state per completed block, parallel to `completed`.
  /// Persisted by v3 containers only (v2's layout is frozen); empty
  /// after a v1/v2 decode. Feeds the outcome's columnar BlockStore so a
  /// v3-resumed campaign reproduces the estimator columns exactly.
  std::vector<AvailabilityState> estimators;
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

/// Serializes `checkpoint` as SLCK v2. The header's generation is the
/// checkpoint's own stats.checkpoints_written.
std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint);

/// Serializes `checkpoint` as an SLCK v3 columnar container (generation
/// = stats.checkpoints_written, like v2). Deterministic: two equal
/// checkpoints encode byte-identically, so resumed and uninterrupted
/// timelines still converge to the same file.
std::vector<std::uint8_t> EncodeCheckpointColumnar(
    const Checkpoint& checkpoint);

/// Dispatches on `format` (kCheckpointVersion or
/// kCheckpointVersionColumnar; anything else falls back to v2).
std::vector<std::uint8_t> EncodeCheckpointAs(const Checkpoint& checkpoint,
                                             std::uint32_t format);

/// Decodes SLCK v2 or v3 bytes; nullopt on bad magic, an unsupported
/// version (v1 included), truncation, or any CRC failure (details in
/// `report`).
std::optional<Checkpoint> DecodeCheckpoint(
    std::span<const std::uint8_t> bytes,
    CheckpointLoadReport* report = nullptr);

/// Atomically and durably writes `checkpoint` to `path` through `env`
/// (tmp + fsync + rename + dir-fsync; the tmp file is unlinked on every
/// error path and the Error carries the failing step's errno).
storage::Error WriteCheckpoint(storage::Env& env, const std::string& path,
                               const Checkpoint& checkpoint);

/// Reads one checkpoint file; nullopt on any I/O or decode failure.
std::optional<Checkpoint> ReadCheckpoint(
    storage::Env& env, const std::string& path,
    CheckpointLoadReport* report = nullptr);

/// Convenience wrappers over the process-wide real filesystem.
bool WriteCheckpoint(const std::string& path, const Checkpoint& checkpoint);
std::optional<Checkpoint> ReadCheckpoint(const std::string& path);

/// Generation-rotating checkpoint store.
///
/// The newest checkpoint always lives at exactly `path` (so external
/// tooling and byte-equality tests see one canonical file); the last
/// `keep` generations additionally survive as hard links `path.g<N>`.
/// Load() prefers the primary file and walks generations newest-first
/// when it is corrupt — the self-healing path.
class CheckpointStore {
 public:
  /// `keep` <= 1 disables rotation (primary file only). `format` picks
  /// the on-disk encoding Save() writes (kCheckpointVersion or
  /// kCheckpointVersionColumnar); Load() reads either regardless, so a
  /// campaign can switch formats across restarts.
  CheckpointStore(storage::Env& env, std::string path, int keep,
                  std::uint32_t format = kCheckpointVersion);

  /// Durably persists `checkpoint` and rotates generations.
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
  std::uint32_t format_;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_CHECKPOINT_H_
