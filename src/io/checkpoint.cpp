#include "tmwia/io/checkpoint.hpp"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace tmwia::io {

namespace {

constexpr char kMagic[8] = {'T', 'M', 'W', 'I', 'A', 'C', 'P', '1'};

/// Slicing-by-8 tables: table[0] is the bytewise CRC table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, so one
/// step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      table[k][i] = (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xFFu];
    }
  }
  return table;
}

/// The little-endian u32 at p.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// The little-endian u64 at p (one load where the host is little-endian).
std::uint64_t load_le64(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         static_cast<std::uint64_t>(load_le32(p + 4)) << 32;
}

/// Append the N little-endian bytes of v to buf in one append.
template <std::size_t N, typename U>
void append_le(std::string& buf, U v) {
  std::array<char, N> bytes{};
  for (std::size_t i = 0; i < N; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  buf.append(bytes.data(), N);
}

[[noreturn]] void fail(const std::string& what) { throw CheckpointError(what); }

/// a * b modulo the CRC polynomial, both bit-reflected (x^0 is bit 31):
/// zlib's multmodp.
std::uint32_t crc_multmod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t prod = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) prod ^= b;
    b = (b & 1u) != 0 ? 0xEDB88320u ^ (b >> 1) : b >> 1;
  }
  return prod;
}

/// x^(8n) modulo the CRC polynomial: multiplying a CRC by it appends n
/// zero bytes to its message (zlib's x2nmodp(n, 3)).
std::uint32_t crc_shift(std::uint64_t n) {
  // pow[k] = x^(8 * 2^k), by repeated squaring from x^8.
  static const auto pow = [] {
    std::array<std::uint32_t, 64> t{};
    t[0] = 1u << (31 - 8);
    for (std::size_t k = 1; k < t.size(); ++k) t[k] = crc_multmod(t[k - 1], t[k - 1]);
    return t;
  }();
  std::uint32_t x = 1u << 31;  // x^0
  for (std::size_t k = 0; n != 0; n >>= 1, ++k) {
    if ((n & 1u) != 0) x = crc_multmod(pow[k], x);
  }
  return x;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables table = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^ table[5][(lo >> 16) & 0xFFu] ^
        table[4][lo >> 24] ^ table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
        table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) c = table[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2, std::uint64_t len2) {
  return crc_multmod(crc_shift(len2), crc1) ^ crc2;
}

// ---------------------------------------------------------------------------
// BinWriter / BinReader
// ---------------------------------------------------------------------------

void BinWriter::u32(std::uint32_t v) { append_le<4>(buf_, v); }

void BinWriter::u64(std::uint64_t v) { append_le<8>(buf_, v); }

void BinWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void BinWriter::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

void BinWriter::bitvec(const bits::BitVector& v) {
  u64(v.size());
  const auto words = v.words();
  if constexpr (std::endian::native == std::endian::little) {
    // The words' own bytes are the wire's: one append for the row.
    buf_.append(reinterpret_cast<const char*>(words.data()), words.size_bytes());
  } else {
    for (const auto w : words) u64(w);
  }
}

const char* BinReader::need(std::size_t n) {
  if (buf_.size() - pos_ < n) {
    fail(context_ + ": truncated (need " + std::to_string(n) + " bytes, have " +
         std::to_string(buf_.size() - pos_) + ")");
  }
  const char* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t BinReader::u8() { return static_cast<std::uint8_t>(*need(1)); }

std::uint32_t BinReader::u32() {
  return load_le32(reinterpret_cast<const unsigned char*>(need(4)));
}

std::uint64_t BinReader::u64() {
  return load_le64(reinterpret_cast<const unsigned char*>(need(8)));
}

double BinReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string_view BinReader::bytes(std::size_t n) { return {need(n), n}; }

std::string BinReader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail(context_ + ": truncated string of length " + std::to_string(n));
  return std::string(bytes(static_cast<std::size_t>(n)));
}

std::size_t BinReader::count(std::size_t min_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_bytes) {
    fail(context_ + ": count " + std::to_string(n) + " exceeds the " +
         std::to_string(remaining()) + " bytes left");
  }
  return static_cast<std::size_t>(n);
}

void BinReader::expect_end() const {
  if (!at_end()) fail(context_ + ": " + std::to_string(remaining()) + " trailing bytes");
}

bits::BitVector BinReader::bitvec() {
  const std::uint64_t n = u64();
  // n / 64 rounded up without the wrap of (n + 63) near 2^64.
  const std::uint64_t words = n / 64 + (n % 64 != 0 ? 1 : 0);
  if (words > remaining() / 8) {
    fail(context_ + ": truncated bit vector of size " + std::to_string(n));
  }
  // One bounds check for the whole row, then the words from that block.
  const auto* p =
      reinterpret_cast<const unsigned char*>(need(static_cast<std::size_t>(words) * 8));
  bits::BitVector v(static_cast<std::size_t>(n));
  v.fill_words([&p] {  // bits past n are masked off
    const std::uint64_t w = load_le64(p);
    p += 8;
    return w;
  });
  return v;
}

// ---------------------------------------------------------------------------
// atomic_write_file
// ---------------------------------------------------------------------------

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const auto slash = path.find_last_of('/');
  const std::string dir = (slash == std::string::npos) ? "." : path.substr(0, slash);
  const std::string tmp = path + ".tmp";

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("atomic_write_file: cannot create " + tmp + ": " +
                             std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("atomic_write_file: write to " + tmp + " failed: " +
                               std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }
  // The data must be durable *before* the rename publishes it, or a
  // crash could expose a renamed-but-empty file.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("atomic_write_file: fsync/close of " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("atomic_write_file: rename to " + path + " failed: " +
                             std::strerror(err));
  }
  // Best-effort directory sync so the rename itself is durable.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

void Checkpoint::set(const std::string& name, std::string bytes) {
  sections_[name] = std::move(bytes);
}

bool Checkpoint::has(const std::string& name) const { return sections_.count(name) > 0; }

const std::string& Checkpoint::require(const std::string& name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) fail("checkpoint: missing section '" + name + "'");
  return it->second;
}

std::string Checkpoint::encode() const {
  std::string body(kMagic, sizeof(kMagic));
  {
    BinWriter w;
    w.u32(kVersion);
    w.u32(static_cast<std::uint32_t>(sections_.size()));
    body.append(w.bytes());
  }
  // The file CRC covers the whole body, but each payload is read once:
  // for its section CRC, which the file CRC then takes in by combining.
  std::uint32_t file_crc = crc32(body.data(), body.size());
  for (const auto& [name, bytes] : sections_) {
    const std::uint32_t payload_crc = crc32(bytes.data(), bytes.size());
    const std::size_t start = body.size();
    BinWriter w;
    w.u32(static_cast<std::uint32_t>(name.size()));
    body.append(w.bytes());
    body.append(name);
    BinWriter tail;
    tail.u64(bytes.size());
    tail.u32(payload_crc);
    body.append(tail.bytes());
    file_crc = crc32(body.data() + start, body.size() - start, file_crc);
    body.append(bytes);
    file_crc = crc32_combine(file_crc, payload_crc, bytes.size());
  }
  BinWriter footer;
  footer.u32(file_crc);
  body.append(footer.bytes());
  return body;
}

Checkpoint Checkpoint::decode(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 4 + 4) fail("checkpoint: file too short");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    fail("checkpoint: bad magic (not a TMWIACP1 file)");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  BinReader footer(bytes.substr(bytes.size() - 4), "checkpoint footer");
  const std::uint32_t want = footer.u32();

  // One walk reads every payload once, for its section CRC, and builds
  // the file CRC from those. It stops at the first fault of the layout
  // and notes the first fault of any kind, in file order.
  std::string fault;
  bool walked = false;
  std::uint32_t got = 0;
  Checkpoint cp;
  try {
    BinReader r(body.substr(sizeof(kMagic)), "checkpoint header");
    const std::uint32_t version = r.u32();
    const std::uint32_t count = r.u32();
    got = crc32(body.data(), sizeof(kMagic) + 8);
    if (version != kVersion) {
      fail("checkpoint: unsupported version " + std::to_string(version) + " (expected " +
           std::to_string(kVersion) + ")");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t start = body.size() - r.remaining();
      const std::uint32_t name_len = r.u32();
      if (name_len > r.remaining()) fail("checkpoint: truncated section name");
      std::string name(r.bytes(name_len));
      const std::uint64_t payload_len = r.u64();
      const std::uint32_t payload_crc = r.u32();
      if (payload_len > r.remaining()) {
        fail("checkpoint: truncated section '" + name + "'");
      }
      got = crc32(body.data() + start, body.size() - r.remaining() - start, got);
      const std::string_view payload = r.bytes(static_cast<std::size_t>(payload_len));
      const std::uint32_t crc = crc32(payload.data(), payload.size());
      got = crc32_combine(got, crc, payload.size());
      if (crc != payload_crc && fault.empty()) {
        fault = "checkpoint: section '" + name + "' CRC mismatch";
      }
      cp.sections_[name] = std::string(payload);
    }
    if (!r.at_end()) fail("checkpoint: trailing garbage after sections");
    walked = true;
  } catch (const CheckpointError& e) {
    if (fault.empty()) fault = e.what();
  }
  // The file CRC is checked first. Where the walk did not cover the
  // body, the body's own CRC decides it.
  if (!walked || got != want) got = crc32(body.data(), body.size());
  if (got != want) fail("checkpoint: file CRC mismatch (corrupt or torn write)");
  if (!fault.empty()) fail(fault);
  return cp;
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) fail("checkpoint: cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) fail("checkpoint: read error on " + path);
  try {
    return decode(bytes);
  } catch (const CheckpointError& e) {
    fail(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace tmwia::io
