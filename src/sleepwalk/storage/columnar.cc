#include "sleepwalk/storage/columnar.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "sleepwalk/net/checksum.h"
#include "sleepwalk/storage/bytes.h"

namespace sleepwalk::storage {

static_assert(std::endian::native == std::endian::little,
              "v3 containers are little-endian on disk and mapped "
              "zero-copy; a big-endian port must byte-swap in As<T>()");

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4 + 4 + 4;  // 36
constexpr std::size_t kDirEntryBytes = 4 + 4 + 8 + 8 + 8 + 4;    // 36

std::size_t AlignUp(std::size_t value, std::size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

Error Corrupt(const std::string& path, std::string detail) {
  Error error;
  error.op = "columnar";
  error.path = path;
  error.detail = std::move(detail);
  return error;
}

}  // namespace

ColumnarWriter::ColumnarWriter(std::string_view magic, std::uint32_t kind,
                               std::uint64_t fingerprint,
                               std::uint64_t generation)
    : kind_(kind), fingerprint_(fingerprint), generation_(generation) {
  // A short magic is a programming error; fail loudly in debug, pad in
  // release (the reader will refuse the file either way).
  std::memset(magic_, 0, sizeof(magic_));
  std::memcpy(magic_, magic.data(),
              magic.size() < sizeof(magic_) ? magic.size() : sizeof(magic_));
}

void ColumnarWriter::AddBorrowed(std::uint32_t id, std::uint32_t elem_width,
                                 std::span<const std::uint8_t> bytes) {
  AddGathered(id, elem_width, {bytes});
}

void ColumnarWriter::AddGathered(
    std::uint32_t id, std::uint32_t elem_width,
    std::vector<std::span<const std::uint8_t>> pieces) {
  Pending pending;
  pending.id = id;
  pending.elem_width = elem_width == 0 ? 1 : elem_width;
  pending.byte_len = 0;
  for (const auto piece : pieces) pending.byte_len += piece.size();
  pending.pieces = std::move(pieces);
  columns_.push_back(std::move(pending));
}

std::vector<std::uint8_t> ColumnarWriter::Head(
    std::vector<std::uint64_t>& offsets, std::uint64_t& file_bytes) const {
  // Lay out payload offsets first so the directory can be written in
  // one pass: data region starts at the next page boundary after the
  // directory, each payload cache-line aligned.
  const std::size_t dir_bytes = columns_.size() * kDirEntryBytes + 4;
  const std::size_t data_start =
      AlignUp(kHeaderBytes + dir_bytes, kColumnarPageBytes);
  offsets.resize(columns_.size());
  std::size_t cursor = data_start;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    cursor = AlignUp(cursor, kColumnarAlignBytes);
    offsets[i] = cursor;
    cursor += columns_[i].byte_len;
  }
  file_bytes = cursor;

  ByteWriter writer;
  writer.Reserve(data_start);
  writer.PutBytes({magic_, sizeof(magic_)});
  writer.Put<std::uint32_t>(kColumnarVersion);
  writer.Put<std::uint64_t>(fingerprint_);
  writer.Put<std::uint64_t>(generation_);
  writer.Put<std::uint32_t>(kind_);
  writer.Put<std::uint32_t>(static_cast<std::uint32_t>(columns_.size()));
  writer.Put<std::uint32_t>(
      net::Crc32cOf({writer.bytes().data(), writer.size()}));

  const std::size_t dir_start = writer.size();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const Pending& column = columns_[i];
    net::Crc32c crc;
    for (const auto piece : column.pieces) crc.Add(piece);
    writer.Put<std::uint32_t>(column.id);
    writer.Put<std::uint32_t>(column.elem_width);
    writer.Put<std::uint64_t>(column.byte_len / column.elem_width);
    writer.Put<std::uint64_t>(offsets[i]);
    writer.Put<std::uint64_t>(column.byte_len);
    writer.Put<std::uint32_t>(crc.Finish());
  }
  writer.Put<std::uint32_t>(net::Crc32cOf(
      {writer.bytes().data() + dir_start, writer.size() - dir_start}));

  std::vector<std::uint8_t> head = writer.Take();
  head.resize(data_start, 0);
  return head;
}

namespace {

/// WriteTo's staging buffer: coalesces pieces into stage-sized Appends,
/// passes stage-sized spans straight through, and remembers the first
/// failed Append (later pieces are dropped).
class Stage {
 public:
  explicit Stage(WritableFile& file) : file_(file) {
    buffer_.reserve(kColumnarStageBytes);
  }

  void Put(std::span<const std::uint8_t> bytes) {
    if (bytes.size() >= kColumnarStageBytes) {
      Flush();
      Append(bytes);
      return;
    }
    while (!bytes.empty() && error_.ok()) {
      const std::size_t take =
          std::min(bytes.size(), kColumnarStageBytes - buffer_.size());
      buffer_.insert(buffer_.end(), bytes.begin(), bytes.begin() + take);
      bytes = bytes.subspan(take);
      if (buffer_.size() == kColumnarStageBytes) Flush();
    }
  }

  Error Finish() {
    Flush();
    return error_;
  }

 private:
  void Flush() {
    if (buffer_.empty()) return;
    Append(buffer_);
    buffer_.clear();
  }

  void Append(std::span<const std::uint8_t> bytes) {
    if (error_.ok()) error_ = file_.Append(bytes);
  }

  WritableFile& file_;
  std::vector<std::uint8_t> buffer_;
  Error error_;
};

}  // namespace

Error ColumnarWriter::WriteTo(WritableFile& file) const {
  std::vector<std::uint64_t> offsets;
  std::uint64_t file_bytes = 0;
  const std::vector<std::uint8_t> head = Head(offsets, file_bytes);
  Stage stage{file};
  stage.Put(head);
  // The gap before a payload is cache-line padding: < 64 bytes.
  static constexpr std::uint8_t kZeros[kColumnarAlignBytes] = {};
  std::uint64_t cursor = head.size();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    stage.Put(std::span{kZeros}.first(offsets[i] - cursor));
    for (const auto piece : columns_[i].pieces) stage.Put(piece);
    cursor = offsets[i] + columns_[i].byte_len;
  }
  return stage.Finish();
}

std::vector<std::uint8_t> ColumnarWriter::Finish() const {
  std::vector<std::uint64_t> offsets;
  std::uint64_t file_bytes = 0;
  std::vector<std::uint8_t> image = Head(offsets, file_bytes);
  image.reserve(file_bytes);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    image.resize(offsets[i], 0);
    for (const auto piece : columns_[i].pieces) {
      image.insert(image.end(), piece.begin(), piece.end());
    }
  }
  return image;
}

Error ColumnarReader::Parse(std::span<const std::uint8_t> file,
                            std::string_view magic, const std::string& path) {
  columns_.clear();
  if (file.size() < kHeaderBytes) {
    return Corrupt(path, "truncated: no room for a v3 header");
  }
  if (magic.size() != 4 || std::memcmp(file.data(), magic.data(), 4) != 0) {
    return Corrupt(path, "bad magic");
  }
  ByteReader reader(file);
  reader.Skip(4);
  std::uint32_t version = 0;
  std::uint32_t n_columns = 0;
  std::uint32_t header_crc = 0;
  reader.Get(version);
  reader.Get(fingerprint_);
  reader.Get(generation_);
  reader.Get(kind_);
  reader.Get(n_columns);
  reader.Get(header_crc);
  if (version != kColumnarVersion) {
    std::string detail;
    if (version >= 1 && version < kColumnarVersion) {
      detail = "v";
      detail += std::to_string(version);
      detail +=
          " container refused: a pre-columnar row format; this reader "
          "takes v3 only";
    } else {
      detail = "unsupported version ";
      detail += std::to_string(version);
    }
    return Corrupt(path, std::move(detail));
  }
  if (net::Crc32cOf(file.first(kHeaderBytes - 4)) != header_crc) {
    return Corrupt(path, "header crc mismatch");
  }

  const std::size_t dir_bytes =
      static_cast<std::size_t>(n_columns) * kDirEntryBytes;
  if (file.size() < kHeaderBytes + dir_bytes + 4) {
    return Corrupt(path, "truncated: directory overruns file");
  }
  const auto directory = file.subspan(kHeaderBytes, dir_bytes);
  std::uint32_t dir_crc = 0;
  std::memcpy(&dir_crc, file.data() + kHeaderBytes + dir_bytes, 4);
  if (net::Crc32cOf(directory) != dir_crc) {
    return Corrupt(path, "directory crc mismatch");
  }

  columns_.reserve(n_columns);
  ByteReader entries(directory);
  for (std::uint32_t i = 0; i < n_columns; ++i) {
    std::uint32_t id = 0;
    std::uint32_t elem_width = 0;
    std::uint64_t rows = 0;
    std::uint64_t offset = 0;
    std::uint64_t byte_len = 0;
    std::uint32_t crc = 0;
    entries.Get(id);
    entries.Get(elem_width);
    entries.Get(rows);
    entries.Get(offset);
    entries.Get(byte_len);
    entries.Get(crc);
    const std::string label = "column " + std::to_string(id);
    if (elem_width == 0 || byte_len != rows * elem_width) {
      columns_.clear();
      return Corrupt(path, label + ": rows * width != byte length");
    }
    if (offset % kColumnarAlignBytes != 0) {
      columns_.clear();
      return Corrupt(path, label + ": misaligned column offset " +
                               std::to_string(offset));
    }
    if (offset < kHeaderBytes + dir_bytes + 4 || offset > file.size() ||
        byte_len > file.size() - offset) {
      columns_.clear();
      return Corrupt(path, label + ": truncated: payload overruns file");
    }
    ColumnarColumn column;
    column.id = id;
    column.elem_width = elem_width;
    column.rows = rows;
    column.bytes = file.subspan(offset, byte_len);
    if (net::Crc32cOf(column.bytes) != crc) {
      columns_.clear();
      return Corrupt(path, label + ": column crc mismatch");
    }
    for (const ColumnarColumn& existing : columns_) {
      if (existing.id == id) {
        columns_.clear();
        return Corrupt(path, label + ": duplicate column id");
      }
    }
    columns_.push_back(column);
  }

  // Strictness pass: payloads must not overlap, and every byte outside
  // the header, directory, and payloads must be zero padding ending
  // exactly where the last payload does. CRCs alone would leave padding
  // unprotected; this closes the gap so *any* single-byte corruption of
  // a well-formed file is detected (the contract the v2 robustness
  // tests established and the v3 hostile-input tests keep).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(columns_.size());
  for (const ColumnarColumn& column : columns_) {
    const auto offset = static_cast<std::uint64_t>(
        column.bytes.data() - file.data());
    extents.emplace_back(offset, offset + column.bytes.size());
  }
  std::sort(extents.begin(), extents.end());
  std::uint64_t cursor = kHeaderBytes + dir_bytes + 4;
  for (const auto& [begin, end] : extents) {
    if (begin < cursor) {
      columns_.clear();
      return Corrupt(path, "overlapping column payloads");
    }
    for (std::uint64_t i = cursor; i < begin; ++i) {
      if (file[i] != 0) {
        columns_.clear();
        return Corrupt(path, "nonzero padding byte at offset " +
                                 std::to_string(i));
      }
    }
    cursor = end;
  }
  const std::uint64_t expected_end =
      extents.empty()
          ? AlignUp(kHeaderBytes + dir_bytes + 4, kColumnarPageBytes)
          : extents.back().second;
  if (file.size() > expected_end) {
    for (std::uint64_t i = cursor; i < file.size(); ++i) {
      if (file[i] != 0) {
        columns_.clear();
        return Corrupt(path, "nonzero padding byte at offset " +
                                 std::to_string(i));
      }
    }
    columns_.clear();
    return Corrupt(path, "trailing bytes after last column");
  }
  if (file.size() < expected_end) {
    // Only reachable with zero columns (payload bounds were checked);
    // an empty container is still padded to the page boundary.
    columns_.clear();
    return Corrupt(path, "truncated: data region short of page boundary");
  }
  return {};
}

const ColumnarColumn* ColumnarReader::Find(std::uint32_t id) const noexcept {
  for (const ColumnarColumn& column : columns_) {
    if (column.id == id) return &column;
  }
  return nullptr;
}

std::optional<std::uint32_t> PeekContainerVersion(
    std::span<const std::uint8_t> file, std::string_view magic) noexcept {
  if (file.size() < 8 || magic.size() != 4) return std::nullopt;
  if (std::memcmp(file.data(), magic.data(), 4) != 0) return std::nullopt;
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + 4, 4);
  return version;
}

}  // namespace sleepwalk::storage
