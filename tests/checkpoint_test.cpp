// Tests for the durability layer: wire helpers, the CRC-guarded
// sectioned container (corruption must reject the whole file, never
// load partially), atomic file replacement, RunCheckpoint serialization
// round-trips, typed rejection of malformed checkpoints (format version,
// counts, trailing bytes, row widths, a cursor that does not fit the
// shape), and the tentpole property — a run resumed from a mid-run
// checkpoint is byte-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/checkpoint.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/faults/fault_plan.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia {
namespace {

TEST(BinWire, RoundTripsEveryType) {
  io::BinWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello \0 world");  // NOLINT(bugprone-string-literal-with-embedded-nul)
  bits::BitVector v(131);
  v.set(0, true);
  v.set(64, true);
  v.set(130, true);
  w.bitvec(v);

  io::BinReader r(w.bytes(), "test");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), std::string("hello "));  // literal truncates at NUL
  const auto back = r.bitvec();
  EXPECT_EQ(back.size(), 131u);
  EXPECT_TRUE(back.get(0));
  EXPECT_TRUE(back.get(64));
  EXPECT_TRUE(back.get(130));
  EXPECT_FALSE(back.get(1));
  EXPECT_TRUE(r.at_end());
}

/// The wire bytes of a little-endian u64, one byte at a time.
std::string le_bytes(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  return out;
}

// A row is its size and then its words, each little-endian. A stream
// whose last word carries set bits past the size decodes to the masked
// row and leaves the reader just past the row; the writer puts the
// masked row's bytes back.
TEST(BinWire, RowWithBitsPastItsSizeDecodesMasked) {
  constexpr std::size_t kWidths[] = {0, 1, 63, 64, 65, 2048};
  rng::Rng gen(17);
  for (const std::size_t n : kWidths) {
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> stream(words);
    for (auto& w : stream) w = gen.next();
    if (words != 0) stream.back() |= ~std::uint64_t{0} << (n % 64 == 0 ? 63 : n % 64);
    std::string bytes = le_bytes(n);
    for (const auto w : stream) bytes += le_bytes(w);
    bytes += le_bytes(0x5E47);

    io::BinReader r(bytes, "row");
    const auto row = r.bitvec();
    ASSERT_EQ(row.size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(row.get(j), ((stream[j / 64] >> (j % 64)) & 1u) != 0) << n << " bit " << j;
    }
    if (n % 64 != 0) {
      EXPECT_EQ(row.words().back() >> (n % 64), 0u) << n;
    }
    EXPECT_EQ(r.u64(), 0x5E47u) << n;
    EXPECT_TRUE(r.at_end()) << n;

    io::BinWriter w;
    w.bitvec(row);
    std::string want = le_bytes(n);
    for (const auto word : row.words()) want += le_bytes(word);
    EXPECT_EQ(w.bytes(), want) << n;
  }
}

// u32 and u64 put their bytes little-endian first, as they always have.
TEST(BinWire, IntegersAreLittleEndianOnTheWire) {
  io::BinWriter w;
  w.u32(0x01020304u);
  w.u64(0x0807060504030201ull);
  EXPECT_EQ(w.bytes(), std::string("\x04\x03\x02\x01", 4) + le_bytes(0x0807060504030201ull));
}

// A size within 63 of 2^64 must not wrap the word count to 0: the reader
// would return a vector that claims 2^64 - 1 bits and has no storage.
TEST(BinWire, RejectsABitVectorSizeThatWrapsTheWordCount) {
  for (const std::uint64_t n : {~std::uint64_t{0}, ~std::uint64_t{0} - 62}) {
    io::BinWriter w;
    w.u64(n);
    w.u64(0);
    io::BinReader r(w.bytes(), "wrap");
    EXPECT_THROW(r.bitvec(), io::CheckpointError) << n;
  }
}

TEST(BinWire, ReaderThrowsOnTruncation) {
  io::BinWriter w;
  w.u64(7);
  const auto bytes = w.bytes().substr(0, 3);
  io::BinReader r(bytes, "trunc");
  EXPECT_THROW(r.u64(), io::CheckpointError);
}

TEST(Crc32, MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(io::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_NE(io::crc32("123456788", 9), io::crc32("123456789", 9));
}

/// CRC-32 one bit at a time, straight from the polynomial.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t size, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

// The eight-bytes-per-step CRC equals the bitwise one on every length
// up to 64, at every alignment, chained through a seed or not.
TEST(Crc32, MatchesABitwiseReference) {
  rng::Rng gen(91);
  std::vector<unsigned char> buf(64 + 8);
  for (std::size_t len = 0; len <= 64; ++len) {
    for (auto& b : buf) b = static_cast<unsigned char>(gen.next());
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t off = gen.uniform(8);
      const auto seed = trial == 0 ? 0u : static_cast<std::uint32_t>(gen.next());
      EXPECT_EQ(io::crc32(buf.data() + off, len, seed),
                crc32_bitwise(buf.data() + off, len, seed))
          << "length " << len << " offset " << off;
    }
  }
  // Chained: the CRC of a whole buffer is the CRC of its tail seeded
  // with the CRC of its head.
  const std::uint32_t head = io::crc32(buf.data(), 13);
  EXPECT_EQ(io::crc32(buf.data() + 13, buf.size() - 13, head), io::crc32(buf.data(), buf.size()));
}

// crc32_combine of a split's two CRCs is the CRC of the whole, for
// random splits of random buffers (empty halves and lengths with high
// bits set included), and folds any number of pieces left to right.
TEST(Crc32, CombineMatchesOnePassOverRandomSplits) {
  rng::Rng gen(92);
  std::vector<unsigned char> buf(70000);
  for (auto& b : buf) b = static_cast<unsigned char>(gen.next());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = trial < 100 ? gen.uniform(300) : gen.uniform(buf.size() + 1);
    const std::size_t off = gen.uniform(buf.size() - len + 1);
    const std::size_t cut = gen.uniform(len + 1);
    const unsigned char* p = buf.data() + off;
    EXPECT_EQ(io::crc32_combine(io::crc32(p, cut), io::crc32(p + cut, len - cut), len - cut),
              io::crc32(p, len))
        << "length " << len << " cut " << cut;
  }
  std::uint32_t folded = io::crc32(buf.data(), 0);
  std::size_t at = 0;
  while (at < buf.size()) {
    const std::size_t piece = std::min(buf.size() - at, gen.uniform(9000));
    folded = io::crc32_combine(folded, io::crc32(buf.data() + at, piece), piece);
    at += piece;
  }
  EXPECT_EQ(folded, io::crc32(buf.data(), buf.size()));
}

TEST(AtomicWrite, ReplacesFileAndLeavesNoTmp) {
  const std::string path = testing::TempDir() + "atomic_write_test.bin";
  io::atomic_write_file(path, "first");
  io::atomic_write_file(path, "second");
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(CheckpointContainer, RoundTripsSections) {
  io::Checkpoint cp;
  cp.set("alpha", "payload-a");
  cp.set("beta", std::string("\0\x01\x02", 3));
  cp.set("gamma", "");
  const auto bytes = cp.encode();

  const auto back = io::Checkpoint::decode(bytes);
  EXPECT_EQ(back.require("alpha"), "payload-a");
  EXPECT_EQ(back.require("beta"), std::string("\0\x01\x02", 3));
  EXPECT_EQ(back.require("gamma"), "");
  EXPECT_TRUE(back.has("alpha"));
  EXPECT_FALSE(back.has("delta"));
  EXPECT_THROW(back.require("delta"), io::CheckpointError);
}

TEST(CheckpointContainer, RejectsCorruptionWhole) {
  io::Checkpoint cp;
  cp.set("state", std::string(1000, 'x'));
  cp.set("meta", "m");
  const auto bytes = cp.encode();

  // Truncation at every structural boundary region: never a partial load.
  for (const std::size_t cut : {0ul, 7ul, 11ul, 20ul, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(io::Checkpoint::decode(bytes.substr(0, cut)), io::CheckpointError)
        << "cut at " << cut;
  }
  // A flipped byte anywhere must fail the footer or section CRC.
  for (const std::size_t pos : {0ul, 8ul, 16ul, bytes.size() / 2, bytes.size() - 2}) {
    auto bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0xFF);
    EXPECT_THROW(io::Checkpoint::decode(bad), io::CheckpointError) << "flip at " << pos;
  }
  // Wrong magic.
  auto wrong = bytes;
  wrong[0] = 'X';
  EXPECT_THROW(io::Checkpoint::decode(wrong), io::CheckpointError);
  // Trailing garbage.
  EXPECT_THROW(io::Checkpoint::decode(bytes + "junk"), io::CheckpointError);
}

/// `body` followed by its CRC: a container whose file CRC holds.
std::string sealed(const std::string& body) {
  io::BinWriter w;
  w.u32(io::crc32(body.data(), body.size()));
  return body + w.bytes();
}

/// What decoding `bytes` fails with ("" if it decodes).
std::string decode_error(const std::string& bytes) {
  try {
    (void)io::Checkpoint::decode(bytes);
  } catch (const io::CheckpointError& e) {
    return e.what();
  }
  return "";
}

// The footer is the CRC of everything before it, and decoding reports
// the file CRC first, then the first fault in file order: the version,
// then section by section a truncation or a section CRC, then trailing
// bytes.
TEST(CheckpointContainer, ReportsTheFileCrcThenTheFirstFaultInFileOrder) {
  io::Checkpoint cp;
  cp.set("a", std::string(100, 'a'));
  cp.set("b", std::string(50, 'b'));
  const auto bytes = cp.encode();
  const std::string body = bytes.substr(0, bytes.size() - 4);
  ASSERT_EQ(sealed(body), bytes);
  const std::size_t a_at = body.find(std::string(100, 'a'));
  const std::size_t b_at = body.find(std::string(50, 'b'));
  ASSERT_LT(a_at, b_at);

  auto bad_a = body;
  bad_a[a_at + 7] = 'x';
  auto bad_b = body;
  bad_b[b_at + 7] = 'x';
  auto version_one = body;
  version_one[8] = 1;
  const std::string cut_b = body.substr(0, b_at + 20);
  const auto expect_error = [](const std::string& got, const std::string& want) {
    EXPECT_NE(got.find(want), std::string::npos) << "got '" << got << "', want '" << want << "'";
  };
  expect_error(decode_error(bad_a + bytes.substr(body.size())), "file CRC mismatch");
  expect_error(decode_error(sealed(bad_a)), "section 'a' CRC mismatch");
  expect_error(decode_error(sealed(bad_a.substr(0, b_at + 20))), "section 'a' CRC mismatch");
  expect_error(decode_error(sealed(cut_b)), "truncated section 'b'");
  expect_error(decode_error(cut_b + bytes.substr(body.size())), "file CRC mismatch");
  expect_error(decode_error(sealed(version_one)), "unsupported version 1");
  expect_error(decode_error(version_one + bytes.substr(body.size())), "file CRC mismatch");
  expect_error(decode_error(sealed(body + "junk")), "trailing garbage");
  expect_error(decode_error(sealed(bad_b + "junk")), "section 'b' CRC mismatch");
  EXPECT_EQ(decode_error(bytes), "");
}

TEST(CheckpointContainer, SaveLoadRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "container_test.tmw";
  io::Checkpoint cp;
  cp.set("only", "section");
  io::atomic_write_file(path, cp.encode());
  const auto back = io::Checkpoint::load(path);
  EXPECT_EQ(back.require("only"), "section");

  // Corrupt the file on disk: load throws, nothing partial comes back.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\x7F');
  }
  EXPECT_THROW(io::Checkpoint::load(path), io::CheckpointError);
  EXPECT_THROW(io::Checkpoint::load(path + ".does-not-exist"), io::CheckpointError);
  std::remove(path.c_str());
}

/// Reads `bytes` back the way resume and serve restore do: from a file,
/// through load_run_checkpoint. The file is named after the running
/// test, so tests run side by side never share one.
core::RunCheckpoint load_bytes(const std::string& bytes) {
  const std::string path = testing::TempDir() +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".ckpt";
  io::atomic_write_file(path, bytes);
  struct Remove {
    const std::string& path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return core::load_run_checkpoint(path);
}

TEST(RunCheckpointWire, RoundTripsFullState) {
  core::RunCheckpoint ck;
  ck.alpha = 0.25;
  ck.players = 2;
  ck.objects = 17;
  ck.seq = 3;
  ck.cum_rounds = 99;
  ck.recorder_clock = 12345;
  ck.versions = {{bits::BitVector(17), bits::BitVector(17)}};
  ck.versions[0][1].set(5, true);
  ck.timeline.push_back({"guess:d=0", 10, 20, 2.0, 0.5});
  ck.before = {7, 8};
  ck.probes_before = 15;
  ck.rng_state = {1, 2, 3, 4};
  ck.oracle.invocations = {10, 20};
  ck.oracle.charged = {9, 19};
  ck.oracle.probed = {bits::BitVector(17), bits::BitVector(17)};
  ck.oracle.values = {bits::BitVector(17), bits::BitVector(17)};
  ck.oracle.probed[0].set(2, true);
  ck.oracle.values[0].set(2, true);
  ck.board.push_back({"votes", {{0, bits::BitVector(17)}}});
  ck.has_injector = true;
  ck.injector.attempts = {4, 5};
  ck.injector.post_seq = {1, 0};
  ck.injector.down = {0, 1};
  ck.injector.degraded = {0, 0};
  ck.injector.orphaned = {1, 0};
  ck.injector.was_crashed = {0, 1};
  ck.injector.was_recovered = {0, 0};
  ck.injector.retries = 2;
  ck.metrics_enabled = false;
  ck.harness = {{"faults", "seed=1"}, {"profile", "practical"}};

  const auto bytes = core::encode_run_checkpoint(ck);
  const auto back = load_bytes(bytes);
  EXPECT_EQ(back.algo, "unknown_d");
  EXPECT_DOUBLE_EQ(back.alpha, 0.25);
  EXPECT_EQ(back.players, 2u);
  EXPECT_EQ(back.objects, 17u);
  EXPECT_EQ(back.seq, 3u);
  EXPECT_EQ(back.cum_rounds, 99u);
  EXPECT_EQ(back.recorder_clock, 12345u);
  ASSERT_EQ(back.versions.size(), 1u);
  EXPECT_TRUE(back.versions[0][1].get(5));
  ASSERT_EQ(back.timeline.size(), 1u);
  EXPECT_EQ(back.timeline[0].label, "guess:d=0");
  EXPECT_EQ(back.timeline[0].rounds, 10u);
  EXPECT_EQ(back.timeline[0].total_probes, 20u);
  EXPECT_DOUBLE_EQ(back.timeline[0].max_disc, 2.0);
  EXPECT_DOUBLE_EQ(back.timeline[0].mean_disc, 0.5);
  EXPECT_EQ(back.before, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(back.probes_before, 15u);
  EXPECT_EQ(back.rng_state, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(back.oracle.invocations, (std::vector<std::uint64_t>{10, 20}));
  EXPECT_TRUE(back.oracle.probed[0].get(2));
  ASSERT_EQ(back.board.size(), 1u);
  EXPECT_EQ(back.board[0].channel, "votes");
  EXPECT_TRUE(back.has_injector);
  EXPECT_EQ(back.injector.attempts, (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(back.injector.down, (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(back.injector.retries, 2u);
  EXPECT_EQ(back.harness_value("faults"), "seed=1");
  EXPECT_EQ(back.harness_value("profile"), "practical");
  EXPECT_EQ(back.harness_value("absent"), "");

  // Corruption of the container is rejected whole.
  auto bad = bytes;
  bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x40);
  EXPECT_THROW(load_bytes(bad), io::CheckpointError);
}

/// A well-formed 4-player, 8-object checkpoint with one version, as the
/// container its sections are swapped in and out of.
core::RunCheckpoint small_checkpoint() {
  core::RunCheckpoint ck;
  ck.players = 4;
  ck.objects = 8;
  ck.versions = {std::vector<bits::BitVector>(4, bits::BitVector(8))};
  ck.timeline.push_back({"guess:d=0", 3, 12, -1.0, -1.0});
  ck.before = {0, 0, 0, 0};
  ck.oracle.invocations = {3, 3, 3, 3};
  ck.oracle.charged = {3, 3, 3, 3};
  ck.oracle.probed = std::vector<bits::BitVector>(4, bits::BitVector(8));
  ck.oracle.values = std::vector<bits::BitVector>(4, bits::BitVector(8));
  return ck;
}

// A board player id at or past the checkpoint's player count is
// corrupt: restoring it would size a channel by that id, and an id past
// 2^32 must not wrap onto a real player.
TEST(RunCheckpointWire, RejectsOutOfRangePlayerIds) {
  auto ck = small_checkpoint();
  ck.board.push_back({"votes", {{1, bits::BitVector(8)}, {3, bits::BitVector(8)}}});
  const io::Checkpoint good = io::Checkpoint::decode(core::encode_run_checkpoint(ck));
  EXPECT_EQ(load_bytes(good.encode()).board[0].posts[1].first, 3u);

  for (const std::uint64_t bad_id : {(std::uint64_t{1} << 32) + 1, std::uint64_t{3000000000}}) {
    io::BinWriter w;
    w.u64(1);  // one channel
    w.str("votes");
    w.u64(1);  // one post
    w.u64(bad_id);
    w.bitvec(bits::BitVector(8));
    auto cp = good;
    cp.set("board", w.take());
    EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError) << bad_id;
  }
}

// A board row wider than the instance is corrupt: no algorithm posts
// one, and a restored channel lays every row out at its widest row's
// width, so one such row would inflate the whole channel.
TEST(RunCheckpointWire, RejectsABoardRowWiderThanTheObjects) {
  const io::Checkpoint good = io::Checkpoint::decode(core::encode_run_checkpoint(small_checkpoint()));
  const auto board_with_row = [](std::size_t width) {
    io::BinWriter w;
    w.u64(1);  // one channel
    w.str("votes");
    w.u64(2);  // two posts
    w.u64(0);
    w.bitvec(bits::BitVector(1));
    w.u64(2);
    w.bitvec(bits::BitVector(width));
    return w.take();
  };
  auto cp = good;
  cp.set("board", board_with_row(8));
  EXPECT_EQ(load_bytes(cp.encode()).board[0].posts[1].second.size(), 8u);
  for (const std::size_t width : {std::size_t{9}, std::size_t{4096}}) {
    cp.set("board", board_with_row(width));
    EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError) << width;
  }
}

// The oracle ledger and the injector cursor hold one entry per player;
// a section with another count fails typed at decode, before resume or
// a serve restore touches any state.
TEST(RunCheckpointWire, RejectsPerPlayerStateOfTheWrongLength) {
  auto ck = small_checkpoint();
  ck.has_injector = true;
  ck.injector.attempts = {0, 0, 0, 0};
  ck.injector.post_seq = {0, 0, 0, 0};
  ck.injector.down = {0, 0, 0, 0};
  ck.injector.degraded = {0, 0, 0, 0};
  ck.injector.orphaned = {0, 0, 0, 0};
  ck.injector.was_crashed = {0, 0, 0, 0};
  ck.injector.was_recovered = {0, 0, 0, 0};
  const io::Checkpoint good = io::Checkpoint::decode(core::encode_run_checkpoint(ck));
  // The oracle section as encode_run_checkpoint writes it, with
  // `invocations` entries in its first vector.
  const auto oracle_section = [](std::uint64_t invocations) {
    io::BinWriter w;
    w.u64(invocations);
    for (std::uint64_t p = 0; p < invocations; ++p) w.u64(3);
    w.u64(4);  // charged
    for (int p = 0; p < 4; ++p) w.u64(3);
    for (int plane = 0; plane < 2; ++plane) {  // probed, values
      w.u64(4);
      for (int p = 0; p < 4; ++p) w.bitvec(bits::BitVector(8));
    }
    return w.take();
  };
  // The injector section, with `down` entries in its `down` flags.
  const auto injector_section = [](std::uint64_t down) {
    io::BinWriter w;
    for (int vec = 0; vec < 2; ++vec) {  // attempts, post_seq
      w.u64(4);
      for (int p = 0; p < 4; ++p) w.u64(0);
    }
    for (int flags = 0; flags < 5; ++flags) {  // down first, then the other four
      const std::uint64_t entries = flags == 0 ? down : 4;
      w.u64(entries);
      for (std::uint64_t p = 0; p < entries; ++p) w.u8(0);
    }
    for (int total = 0; total < 5; ++total) w.u64(0);
    return w.take();
  };
  for (const std::uint64_t entries : {4, 3}) {
    auto cp = good;
    cp.set("oracle", oracle_section(entries));
    auto ci = good;
    ci.set("injector", injector_section(entries));
    if (entries == 4) {
      EXPECT_EQ(load_bytes(cp.encode()).oracle.invocations.size(), 4u);
      EXPECT_EQ(load_bytes(ci.encode()).injector.down.size(), 4u);
    } else {
      EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError);
      EXPECT_THROW(load_bytes(ci.encode()), io::CheckpointError);
    }
  }
}

/// The tower section as encode_run_checkpoint writes it, with `rows`
/// as the only version.
std::string tower_with_rows(const std::vector<bits::BitVector>& rows) {
  io::BinWriter w;
  w.u64(1);  // one version
  w.u64(rows.size());
  for (const auto& row : rows) w.bitvec(row);
  w.u64(1);  // one timeline entry
  w.str("guess:d=0");
  w.u64(3);
  w.u64(12);
  w.f64(-1.0);
  w.f64(-1.0);
  w.u64(4);  // before
  for (int p = 0; p < 4; ++p) w.u64(0);
  w.u64(0);  // probes_before
  for (int i = 0; i < 4; ++i) w.u64(0);  // rng state
  return w.take();
}

// Checkpoints are format version 2 (no serialized report section): a
// version-1 file fails typed at the header instead of being misread.
TEST(RunCheckpointWire, RefusesAVersionOneContainer) {
  auto bytes = core::encode_run_checkpoint(small_checkpoint());
  bytes[8] = 1;  // the u32 format version, little-endian, after the magic
  const std::string_view body(bytes.data(), bytes.size() - 4);
  const std::uint32_t crc = io::crc32(body.data(), body.size());
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  try {
    (void)load_bytes(bytes);
    FAIL() << "a version-1 container decoded";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"), std::string::npos)
        << e.what();
  }
}

// Every version row and oracle row must be `objects` bits wide: the
// final RSelect and a serve restore read version rows as estimates, and
// the oracle sets and reads its rows by object id.
TEST(RunCheckpointWire, RejectsARowOfTheWrongWidth) {
  const io::Checkpoint good = io::Checkpoint::decode(core::encode_run_checkpoint(small_checkpoint()));
  auto same = good;
  same.set("tower", tower_with_rows(std::vector<bits::BitVector>(4, bits::BitVector(8))));
  EXPECT_EQ(load_bytes(same.encode()).versions[0].size(), 4u);

  for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{9}}) {
    auto cp = good;
    cp.set("tower", tower_with_rows(std::vector<bits::BitVector>(4, bits::BitVector(width))));
    EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError) << width;

    auto ck = small_checkpoint();
    ck.oracle.values[0] = bits::BitVector(width);
    EXPECT_THROW(load_bytes(core::encode_run_checkpoint(ck)),
                 io::CheckpointError)
        << width;
  }
}

// A count no section could hold fails typed before anything is
// allocated for it, not as a length_error from a reserve of 2^61.
TEST(RunCheckpointWire, RejectsCountsTheSectionCannotHold) {
  const io::Checkpoint good = io::Checkpoint::decode(core::encode_run_checkpoint(small_checkpoint()));
  io::BinWriter w;
  w.u64(std::uint64_t{1} << 61);  // invocations
  auto cp = good;
  cp.set("oracle", w.take());
  EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError);

  io::BinWriter h;
  h.u64(std::uint64_t{1} << 40);  // harness entries, with 0 bytes left
  cp = good;
  cp.set("harness", h.take());
  EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError);
}

// Each section is read to its end: bytes after its last field are
// corruption, not padding.
TEST(RunCheckpointWire, RejectsTrailingBytesInASection) {
  auto ck = small_checkpoint();
  ck.has_injector = true;
  ck.injector.attempts = {0, 0, 0, 0};
  ck.injector.post_seq = {0, 0, 0, 0};
  ck.injector.down = {0, 0, 0, 0};
  ck.injector.degraded = {0, 0, 0, 0};
  ck.injector.orphaned = {0, 0, 0, 0};
  ck.injector.was_crashed = {0, 0, 0, 0};
  ck.injector.was_recovered = {0, 0, 0, 0};
  ck.metrics_enabled = true;
  const io::Checkpoint good = io::Checkpoint::decode(core::encode_run_checkpoint(ck));
  for (const std::string name :
       {"meta", "tower", "oracle", "board", "injector", "metrics", "harness"}) {
    ASSERT_TRUE(good.has(name)) << name;
    auto cp = good;
    cp.set(name, good.require(name) + std::string(16, '\0'));
    EXPECT_THROW(load_bytes(cp.encode()), io::CheckpointError) << name;
  }
}

// The tentpole: cut checkpoints mid-run, then resume each one in a
// fresh world — every resumed run must match the uninterrupted run
// byte-for-byte (outputs and report JSON).
TEST(CheckpointResume, ResumedRunIsByteIdentical) {
  rng::Rng gen(21);
  const auto inst = matrix::planted_community(24, 48, {0.5, 1}, gen);
  const auto params = core::Params::practical();
  const double alpha = 0.5;

  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  std::vector<core::RunCheckpoint> cuts;
  core::CheckpointPolicy policy;
  policy.every_rounds = 40;
  policy.sink = [&cuts](const core::RunCheckpoint& ck) { cuts.push_back(ck); };
  const auto reference = core::find_preferences_unknown_d(oracle, &board, alpha, params,
                                                          rng::Rng(31), policy);
  ASSERT_GE(cuts.size(), 2u) << "cadence produced too few checkpoints to test";

  for (const auto& cut : cuts) {
    billboard::ProbeOracle oracle2(inst.matrix);
    billboard::Billboard board2;
    core::CheckpointPolicy resume_policy;
    resume_policy.every_rounds = policy.every_rounds;
    const auto resumed =
        core::resume_unknown_d(oracle2, &board2, params, cut, resume_policy);
    EXPECT_EQ(resumed.to_json(), reference.to_json()) << "cut seq " << cut.seq;
    ASSERT_EQ(resumed.outputs.size(), reference.outputs.size());
    for (std::size_t p = 0; p < reference.outputs.size(); ++p) {
      EXPECT_EQ(resumed.outputs[p].hash(), reference.outputs[p].hash())
          << "cut seq " << cut.seq << " player " << p;
    }
    EXPECT_EQ(oracle2.total_invocations(), oracle.total_invocations());
    EXPECT_EQ(oracle2.max_invocations(), oracle.max_invocations());
    EXPECT_TRUE(board2.export_posts() == board.export_posts()) << "cut seq " << cut.seq;
  }
}

// Same property with a fault plan attached: the injector state travels
// through the checkpoint.
TEST(CheckpointResume, ResumesUnderFaults) {
  rng::Rng gen(22);
  const auto inst = matrix::planted_community(24, 48, {0.5, 1}, gen);
  const auto params = core::Params::practical();
  const auto plan = faults::FaultPlan::parse("seed=5,probe=0.05,retry=2");

  billboard::ProbeOracle oracle(inst.matrix);
  faults::FaultInjector injector(plan, inst.matrix.players());
  oracle.set_fault_injector(&injector);
  billboard::Billboard board;
  std::vector<core::RunCheckpoint> cuts;
  core::CheckpointPolicy policy;
  policy.every_rounds = 60;
  policy.sink = [&cuts](const core::RunCheckpoint& ck) { cuts.push_back(ck); };
  const auto reference =
      core::find_preferences_unknown_d(oracle, &board, 0.5, params, rng::Rng(33), policy);
  ASSERT_GE(cuts.size(), 1u);

  const auto& cut = cuts[cuts.size() / 2];
  EXPECT_TRUE(cut.has_injector);
  billboard::ProbeOracle oracle2(inst.matrix);
  faults::FaultInjector injector2(plan, inst.matrix.players());
  oracle2.set_fault_injector(&injector2);
  billboard::Billboard board2;
  core::CheckpointPolicy resume_policy;
  resume_policy.every_rounds = policy.every_rounds;
  const auto resumed = core::resume_unknown_d(oracle2, &board2, params, cut, resume_policy);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
  EXPECT_TRUE(board2.export_posts() == board.export_posts());

  // Resuming without the injector the checkpoint expects is an error.
  billboard::ProbeOracle oracle3(inst.matrix);
  billboard::Billboard board3;
  EXPECT_THROW(core::resume_unknown_d(oracle3, &board3, params, cut, resume_policy),
               std::invalid_argument);
}

TEST(CheckpointResume, RejectsShapeMismatch) {
  rng::Rng gen(23);
  const auto inst = matrix::planted_community(16, 32, {0.5, 0}, gen);
  const auto params = core::Params::practical();
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  std::vector<core::RunCheckpoint> cuts;
  core::CheckpointPolicy policy;
  policy.every_rounds = 20;
  policy.sink = [&cuts](const core::RunCheckpoint& ck) { cuts.push_back(ck); };
  (void)core::find_preferences_unknown_d(oracle, &board, 0.5, params, rng::Rng(41), policy);
  ASSERT_GE(cuts.size(), 1u);

  rng::Rng gen2(24);
  const auto other = matrix::planted_community(8, 32, {0.5, 0}, gen2);
  billboard::ProbeOracle wrong(other.matrix);
  billboard::Billboard wb;
  EXPECT_THROW(core::resume_unknown_d(wrong, &wb, params, cuts[0], policy),
               std::invalid_argument);

  auto tampered = cuts[0];
  tampered.algo = "anytime";
  EXPECT_THROW(core::resume_unknown_d(oracle, &board, params, tampered, policy),
               std::invalid_argument);
}

// The cursor must fit the shape before resume touches any state: the
// final RSelect reads row i of every version, so a version with one row
// instead of one per player would send it past the end.
TEST(CheckpointResume, RejectsACursorThatDoesNotFitTheShape) {
  rng::Rng gen(26);
  const auto inst = matrix::planted_community(16, 32, {0.5, 0}, gen);
  const auto params = core::Params::practical();
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  std::vector<core::RunCheckpoint> cuts;
  core::CheckpointPolicy policy;
  policy.every_rounds = 20;
  policy.sink = [&cuts](const core::RunCheckpoint& ck) { cuts.push_back(ck); };
  (void)core::find_preferences_unknown_d(oracle, &board, 0.5, params, rng::Rng(61), policy);
  ASSERT_GE(cuts.size(), 1u);
  const auto& cut = cuts[0];
  ASSERT_GE(cut.versions.size(), 1u);

  // m = 32 runs the 6 guesses 0, 1, 2, 4, 8, 16.
  std::vector<core::RunCheckpoint> bad(4, cut);
  bad[0].versions.resize(7, cut.versions[0]);
  bad[0].timeline.resize(7, cut.timeline[0]);
  bad[1].versions[0].resize(1);
  bad[2].timeline.pop_back();
  bad[3].before.pop_back();
  const core::CheckpointPolicy no_cuts;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto decoded = load_bytes(core::encode_run_checkpoint(bad[i]));
    billboard::ProbeOracle fresh(inst.matrix);
    billboard::Billboard fresh_board;
    EXPECT_THROW(core::resume_unknown_d(fresh, &fresh_board, params, decoded, no_cuts),
                 io::CheckpointError)
        << "case " << i;
    EXPECT_EQ(fresh.total_invocations(), 0u) << "case " << i << ": ledger restored";
  }
}

TEST(CheckpointResume, FileRoundTripPreservesResume) {
  rng::Rng gen(25);
  const auto inst = matrix::planted_community(16, 32, {0.5, 0}, gen);
  const auto params = core::Params::practical();
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  const std::string path = testing::TempDir() + "resume_file_test.tmw";
  core::CheckpointPolicy policy;
  policy.every_rounds = 30;
  policy.sink = [&path](const core::RunCheckpoint& ck) {
    core::save_run_checkpoint(path, ck);
  };
  const auto reference =
      core::find_preferences_unknown_d(oracle, &board, 0.5, params, rng::Rng(51), policy);

  const auto loaded = core::load_run_checkpoint(path);
  billboard::ProbeOracle oracle2(inst.matrix);
  billboard::Billboard board2;
  core::CheckpointPolicy resume_policy;
  resume_policy.every_rounds = policy.every_rounds;
  const auto resumed =
      core::resume_unknown_d(oracle2, &board2, params, loaded, resume_policy);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tmwia
