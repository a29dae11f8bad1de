// Page-aligned columnar container: the SLCK/SLPW v3 on-disk engine.
//
// The v2 row formats framed row-oriented sections (storage/bytes.h
// streams, one record at a time); loading a million-block checkpoint
// through them costs a full decode pass before the first block is
// usable. v3 keeps the same trust discipline — magic, version, CRC32C over every payload — but
// lays the state out as fixed-width columns so a reader can hand out
// *typed spans straight into the mapped file* (storage::Env::Map) and
// the block store (core/block_store.h) can adopt them with one memcpy
// per column instead of one decode per field per row.
//
// File layout (all integers little-endian):
//
//   header  (36 bytes)
//     0   magic[4]        caller-supplied ("SLCK", "SLPW")
//     4   u32 version     == 3
//     8   u64 fingerprint campaign/config identity (caller semantics)
//     16  u64 generation  monotone snapshot counter
//     24  u32 kind        caller-defined payload discriminator
//     28  u32 n_columns
//     32  u32 header_crc  CRC32C of bytes [0, 32)
//   directory  (n_columns x 36 bytes, then u32 directory_crc)
//     u32 id | u32 elem_width | u64 rows | u64 offset | u64 byte_len
//     | u32 column_crc
//   zero padding to the 4096-byte data region boundary
//   column payloads, each offset 64-byte aligned, zero padding between
//
// The reader validates *everything* before exposing a byte: magic,
// version (a v1/v2 file is refused with a distinct message, not parsed
// as garbage), header CRC, directory CRC, and per column
// that byte_len == rows * elem_width, the offset is aligned and inside
// the file, and the payload CRC matches. Hostile inputs fail closed
// with an Error naming the first violated invariant.
#ifndef SLEEPWALK_STORAGE_COLUMNAR_H_
#define SLEEPWALK_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sleepwalk/storage/file.h"

namespace sleepwalk::storage {

/// The shared SLCK/SLPW v3 container version.
inline constexpr std::uint32_t kColumnarVersion = 3;
/// Data region starts on a page boundary (mmap-friendly).
inline constexpr std::size_t kColumnarPageBytes = 4096;
/// Every column payload starts on a cache-line boundary; also the
/// alignment contract typed zero-copy views rely on.
inline constexpr std::size_t kColumnarAlignBytes = 64;

/// WriteTo's staging buffer: small pieces (the header piece, narrow
/// columns, the zero gaps) coalesce into Appends of this size; a span at
/// least this long goes to Append as is.
inline constexpr std::size_t kColumnarStageBytes = std::size_t{1} << 20;

/// Streams a v3 container from the memory that already holds its
/// columns: the writer borrows every payload, and the caller guarantees
/// each one outlives every Finish() and WriteTo(). Column ids are
/// caller-defined and must be unique; insertion order is preserved.
/// WriteTo() appends the file to a WritableFile through one fixed
/// staging buffer and never builds the whole image; Finish() returns
/// the same bytes as one buffer.
class ColumnarWriter {
 public:
  /// `magic` must be exactly 4 bytes.
  ColumnarWriter(std::string_view magic, std::uint32_t kind,
                 std::uint64_t fingerprint, std::uint64_t generation);

  /// Adds a raw column. `bytes.size()` must be a multiple of
  /// `elem_width` (elem_width >= 1); rows = size / width.
  void AddBorrowed(std::uint32_t id, std::uint32_t elem_width,
                   std::span<const std::uint8_t> bytes);

  /// A gathered column: the `pieces` laid end to end form one payload
  /// (empty pieces are fine). The pieces' bytes are borrowed.
  void AddGathered(std::uint32_t id, std::uint32_t elem_width,
                   std::vector<std::span<const std::uint8_t>> pieces);

  /// Adds a column of scalars (the fixed-width fast path).
  template <typename T>
  void AddTypedBorrowed(std::uint32_t id, std::span<const T> values) {
    AddBorrowed(id, sizeof(T), BytesOf(values));
  }

  /// The raw bytes of a typed span (the piece type AddGathered takes).
  template <typename T>
  static std::span<const std::uint8_t> BytesOf(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns hold plain scalar types");
    return {reinterpret_cast<const std::uint8_t*>(values.data()),
            values.size_bytes()};
  }

  /// Appends the file to `file`: one piece holding the header, the CRC'd
  /// directory and the page padding, then each payload and its zero
  /// gap, staged through a kColumnarStageBytes buffer. Column CRCs are
  /// computed before the directory is emitted. A file no larger than
  /// the stage takes exactly one Append. Stops at the first failed
  /// Append and returns its Error.
  Error WriteTo(WritableFile& file) const;

  /// The bytes WriteTo() appends, as one buffer. The writer may be
  /// reused after (columns stay; call again after more columns for a
  /// superset image).
  std::vector<std::uint8_t> Finish() const;

 private:
  struct Pending {
    std::uint32_t id;
    std::uint32_t elem_width;
    std::uint64_t byte_len;
    std::vector<std::span<const std::uint8_t>> pieces;  // the payload
  };

  /// Header + directory + padding up to the data region; fills
  /// `offsets` with each payload's file offset and returns the file
  /// size through `file_bytes`.
  std::vector<std::uint8_t> Head(std::vector<std::uint64_t>& offsets,
                                 std::uint64_t& file_bytes) const;

  std::uint8_t magic_[4];
  std::uint32_t kind_;
  std::uint64_t fingerprint_;
  std::uint64_t generation_;
  std::vector<Pending> columns_;
};

/// A validated view of one column inside a parsed container. `bytes`
/// points into the caller's buffer/mapping (zero-copy).
struct ColumnarColumn {
  std::uint32_t id = 0;
  std::uint32_t elem_width = 0;
  std::uint64_t rows = 0;
  std::span<const std::uint8_t> bytes;

  /// Typed zero-copy view; empty span when the element width or the
  /// pointer alignment does not match T (callers must check rows).
  template <typename T>
  std::span<const T> As() const noexcept {
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns hold plain scalar types");
    if (elem_width != sizeof(T)) return {};
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) != 0) {
      return {};
    }
    return {reinterpret_cast<const T*>(bytes.data()),
            static_cast<std::size_t>(rows)};
  }
};

/// Parses + validates a v3 container over a caller-owned byte range
/// (typically a MappedRegion's bytes; the range must outlive the
/// reader and every span it hands out).
class ColumnarReader {
 public:
  /// Full validation pass; on failure the reader is empty and the
  /// Error's detail names the violated invariant ("bad magic",
  /// "truncated", "misaligned column offset", "column crc mismatch",
  /// "v2 container refused", ...). `path` only labels errors.
  Error Parse(std::span<const std::uint8_t> file, std::string_view magic,
              const std::string& path = "<memory>");

  std::uint32_t kind() const noexcept { return kind_; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  std::uint64_t generation() const noexcept { return generation_; }

  const std::vector<ColumnarColumn>& columns() const noexcept {
    return columns_;
  }
  /// Lookup by id; null when absent.
  const ColumnarColumn* Find(std::uint32_t id) const noexcept;

  /// Typed column fetch with a row-count demand — the decode-side
  /// workhorse: fails closed when the column is missing, mis-typed,
  /// misaligned, or the wrong length.
  template <typename T>
  bool FetchTyped(std::uint32_t id, std::uint64_t rows,
                  std::span<const T>& out) const noexcept {
    const ColumnarColumn* column = Find(id);
    if (column == nullptr || column->rows != rows) return false;
    out = column->As<T>();
    return out.size() == rows;
  }

 private:
  std::uint32_t kind_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<ColumnarColumn> columns_;
};

/// Sniffs the container version at bytes [4, 8) when `file` starts with
/// `magic` (every SLCK/SLPW version keeps it there, so format dispatch
/// and slck_fsck use this before committing to a decoder). nullopt when the
/// file is too short or the magic differs.
std::optional<std::uint32_t> PeekContainerVersion(
    std::span<const std::uint8_t> file, std::string_view magic) noexcept;

}  // namespace sleepwalk::storage

#endif  // SLEEPWALK_STORAGE_COLUMNAR_H_
