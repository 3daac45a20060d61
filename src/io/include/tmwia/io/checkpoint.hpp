#pragma once
// Crash-consistent durable artifacts: a little-endian wire format
// (BinWriter/BinReader), an atomic-write helper (tmp + fsync + rename),
// and a versioned, CRC-guarded sectioned container (Checkpoint).
//
// The container is the only sanctioned on-disk form for run snapshots:
// every section carries its own CRC32 and the file ends with a footer
// CRC over everything before it, so a torn write (the process may be
// SIGKILLed at any byte) is always *rejected whole* — load() either
// returns the exact bytes that were saved or throws CheckpointError.
// Partial loads do not exist.
//
// File layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "TMWIACP1"
//   8       4     format version (u32, currently 2)
//   12      4     section count (u32)
//   --- per section ---
//           4     name length (u32)
//           *     name bytes
//           8     payload length (u64)
//           4     payload CRC32
//           *     payload bytes
//   --- footer ---
//           4     CRC32 over every preceding byte
//
// Durable writes outside io:: are a lint finding (durable-write rule):
// route them through atomic_write_file so a crash never leaves a
// half-written artifact at the destination path.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/bits/bitvector.hpp"

namespace tmwia::io {

// Thrown on any structural problem with a checkpoint artifact:
// truncation, bad magic, unsupported version, CRC mismatch, missing
// section, a reader running past the end of a section payload, a count
// the payload cannot hold, or bytes left over after a section's last
// field.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven,
// eight bytes per step (slicing-by-8).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

// The CRC-32 of A followed by B, from crc1 = crc32(A), crc2 = crc32(B)
// and len2 = |B|, without reading either (zlib's crc32_combine): equal
// to crc32(B, len2, crc1), in O(log len2) steps.
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2, std::uint64_t len2);

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);
  void bitvec(const bits::BitVector& v);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class BinReader {
 public:
  // The reader borrows `bytes`; keep the buffer alive while reading.
  explicit BinReader(std::string_view bytes, std::string context = "checkpoint")
      : buf_(bytes), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  bits::BitVector bitvec();
  // The next n bytes, as a view into the borrowed buffer.
  std::string_view bytes(std::size_t n);

  // An element count (u64), checked against what the rest of the
  // payload can hold at `min_bytes` (>= 1) per element, so a corrupt
  // count never sizes an allocation.
  std::size_t count(std::size_t min_bytes);
  // Throws unless every byte of the payload was read.
  void expect_end() const;

  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const char* need(std::size_t n);  // throws CheckpointError on truncation

  std::string_view buf_;
  std::size_t pos_ = 0;
  std::string context_;
};

// ---------------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------------

// Write `bytes` to `path` crash-atomically: the bytes go to a tmp file
// in the same directory, are fsync'd, and the tmp is rename(2)'d over
// `path`. Readers observe either the old file or the complete new one,
// never a prefix. Throws std::runtime_error on I/O failure (the tmp
// file is removed on the error path).
void atomic_write_file(const std::string& path, std::string_view bytes);

// ---------------------------------------------------------------------------
// Sectioned container
// ---------------------------------------------------------------------------

class Checkpoint {
 public:
  static constexpr std::uint32_t kVersion = 2;

  void set(const std::string& name, std::string bytes);
  bool has(const std::string& name) const;
  // Throws CheckpointError naming the section when absent.
  const std::string& require(const std::string& name) const;

  // Serialize to the container format (io::atomic_write_file puts it
  // on disk).
  std::string encode() const;

  // Parse/load; throws CheckpointError on any corruption.
  static Checkpoint decode(std::string_view bytes);
  static Checkpoint load(const std::string& path);

 private:
  std::map<std::string, std::string> sections_;
};

}  // namespace tmwia::io
