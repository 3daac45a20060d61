#include "tmwia/core/checkpoint.hpp"

#include <algorithm>
#include <limits>

namespace tmwia::core {
namespace {

using io::BinReader;
using io::BinWriter;

// Section names inside the io::Checkpoint container.
constexpr const char* kSecMeta = "meta";
constexpr const char* kSecTower = "tower";
constexpr const char* kSecOracle = "oracle";
constexpr const char* kSecBoard = "board";
constexpr const char* kSecInjector = "injector";
constexpr const char* kSecMetrics = "metrics";
constexpr const char* kSecHarness = "harness";

// Least wire size of one element, for BinReader::count: a u64, a
// length-prefixed string or bit vector (the prefix alone), a timeline
// entry (label prefix, two u64, two f64) and a histogram (name and two
// vector prefixes, sum, count).
constexpr std::size_t kU64Bytes = 8;
constexpr std::size_t kPairBytes = 16;
constexpr std::size_t kTimelineBytes = 40;
constexpr std::size_t kHistogramBytes = 40;

void write_u64_vec(BinWriter& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u64(x);
}

std::vector<std::uint64_t> read_u64_vec(BinReader& r) {
  std::vector<std::uint64_t> v(r.count(kU64Bytes));
  for (auto& x : v) x = r.u64();
  return v;
}

void write_u8_vec(BinWriter& w, const std::vector<std::uint8_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u8(x);
}

std::vector<std::uint8_t> read_u8_vec(BinReader& r) {
  std::vector<std::uint8_t> v(r.count(1));
  for (auto& x : v) x = r.u8();
  return v;
}

/// A player id off the wire. An id at or past the run's player count is
/// corrupt: a restored board sizes each channel by its largest poster.
PlayerId read_player(BinReader& r, std::uint64_t players) {
  const std::uint64_t p = r.u64();
  if (p >= players || p > std::numeric_limits<PlayerId>::max()) {
    throw io::CheckpointError("checkpoint: player id " + std::to_string(p) +
                              " out of range for " + std::to_string(players) + " players");
  }
  return static_cast<PlayerId>(p);
}

/// One entry per player: the oracle and the fault injector restore
/// their per-player state by player id, so any other count is corrupt.
template <typename T>
void require_per_player(const std::vector<T>& v, std::uint64_t players, const char* what) {
  if (v.size() != players) {
    throw io::CheckpointError("checkpoint: " + std::string(what) + " holds " +
                              std::to_string(v.size()) + " entries for " +
                              std::to_string(players) + " players");
  }
}

void write_bitvec_vec(BinWriter& w, const std::vector<bits::BitVector>& v) {
  w.u64(v.size());
  for (const auto& x : v) w.bitvec(x);
}

/// Rows of one bit per object: candidate versions and the oracle's
/// probe records. A row of any other width is corrupt — the tower and
/// the oracle index it by object id.
std::vector<bits::BitVector> read_rows(BinReader& r, std::uint64_t objects) {
  std::vector<bits::BitVector> v(r.count(kU64Bytes));
  for (auto& x : v) {
    x = r.bitvec();
    if (x.size() != objects) {
      throw io::CheckpointError("checkpoint: row of " + std::to_string(x.size()) +
                                " bits for " + std::to_string(objects) + " objects");
    }
  }
  return v;
}

void write_snapshot(BinWriter& w, const obs::Snapshot& snap) {
  w.u64(snap.counters.size());
  for (const auto& [name, v] : snap.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u64(snap.gauges.size());
  for (const auto& [name, v] : snap.gauges) {
    w.str(name);
    w.i64(v);
  }
  w.u64(snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    w.str(name);
    write_u64_vec(w, h.bounds);
    write_u64_vec(w, h.buckets);
    w.u64(h.sum);
    w.u64(h.count);
  }
}

obs::Snapshot read_snapshot(BinReader& r) {
  obs::Snapshot snap;
  for (std::size_t i = 0, n = r.count(kPairBytes); i < n; ++i) {
    std::string name = r.str();
    snap.counters.emplace(std::move(name), r.u64());
  }
  for (std::size_t i = 0, n = r.count(kPairBytes); i < n; ++i) {
    std::string name = r.str();
    snap.gauges.emplace(std::move(name), r.i64());
  }
  for (std::size_t i = 0, n = r.count(kHistogramBytes); i < n; ++i) {
    std::string name = r.str();
    obs::HistogramData h;
    h.bounds = read_u64_vec(r);
    h.buckets = read_u64_vec(r);
    h.sum = r.u64();
    h.count = r.u64();
    snap.histograms.emplace(std::move(name), std::move(h));
  }
  return snap;
}

}  // namespace

std::string RunCheckpoint::harness_value(const std::string& key) const {
  for (const auto& [k, v] : harness) {
    if (k == key) return v;
  }
  return {};
}

std::string encode_run_checkpoint(const RunCheckpoint& ckpt) {
  io::Checkpoint cp;
  {
    BinWriter w;
    w.str(ckpt.algo);
    w.f64(ckpt.alpha);
    w.u64(ckpt.players);
    w.u64(ckpt.objects);
    w.u64(ckpt.seq);
    w.u64(ckpt.cum_rounds);
    w.u64(ckpt.recorder_clock);
    cp.set(kSecMeta, w.take());
  }
  {
    BinWriter w;
    w.u64(ckpt.versions.size());
    for (const auto& v : ckpt.versions) write_bitvec_vec(w, v);
    w.u64(ckpt.timeline.size());
    for (const auto& entry : ckpt.timeline) {
      w.str(entry.label);
      w.u64(entry.rounds);
      w.u64(entry.total_probes);
      w.f64(entry.max_disc);
      w.f64(entry.mean_disc);
    }
    write_u64_vec(w, ckpt.before);
    w.u64(ckpt.probes_before);
    for (const auto s : ckpt.rng_state) w.u64(s);
    cp.set(kSecTower, w.take());
  }
  {
    BinWriter w;
    write_u64_vec(w, ckpt.oracle.invocations);
    write_u64_vec(w, ckpt.oracle.charged);
    write_bitvec_vec(w, ckpt.oracle.probed);
    write_bitvec_vec(w, ckpt.oracle.values);
    cp.set(kSecOracle, w.take());
  }
  {
    BinWriter w;
    w.u64(ckpt.board.size());
    for (const auto& ch : ckpt.board) {
      w.str(ch.channel);
      w.u64(ch.posts.size());
      for (const auto& [p, v] : ch.posts) {
        w.u64(p);
        w.bitvec(v);
      }
    }
    cp.set(kSecBoard, w.take());
  }
  if (ckpt.has_injector) {
    BinWriter w;
    write_u64_vec(w, ckpt.injector.attempts);
    write_u64_vec(w, ckpt.injector.post_seq);
    write_u8_vec(w, ckpt.injector.down);
    write_u8_vec(w, ckpt.injector.degraded);
    write_u8_vec(w, ckpt.injector.orphaned);
    write_u8_vec(w, ckpt.injector.was_crashed);
    write_u8_vec(w, ckpt.injector.was_recovered);
    w.u64(ckpt.injector.probe_failures);
    w.u64(ckpt.injector.retries);
    w.u64(ckpt.injector.fallback_reads);
    w.u64(ckpt.injector.posts_dropped);
    w.u64(ckpt.injector.posts_delayed);
    cp.set(kSecInjector, w.take());
  }
  if (ckpt.metrics_enabled) {
    BinWriter w;
    write_snapshot(w, ckpt.metrics);
    cp.set(kSecMetrics, w.take());
  }
  {
    BinWriter w;
    auto harness = ckpt.harness;
    std::sort(harness.begin(), harness.end());
    w.u64(harness.size());
    for (const auto& [k, v] : harness) {
      w.str(k);
      w.str(v);
    }
    cp.set(kSecHarness, w.take());
  }
  return cp.encode();
}

namespace {

RunCheckpoint from_container(const io::Checkpoint& cp) {
  RunCheckpoint ckpt;
  {
    BinReader r(cp.require(kSecMeta), "checkpoint meta");
    ckpt.algo = r.str();
    ckpt.alpha = r.f64();
    ckpt.players = r.u64();
    ckpt.objects = r.u64();
    ckpt.seq = r.u64();
    ckpt.cum_rounds = r.u64();
    ckpt.recorder_clock = r.u64();
    r.expect_end();
  }
  {
    BinReader r(cp.require(kSecTower), "checkpoint tower");
    ckpt.versions.resize(r.count(kU64Bytes));
    for (auto& version : ckpt.versions) version = read_rows(r, ckpt.objects);
    ckpt.timeline.resize(r.count(kTimelineBytes));
    for (auto& entry : ckpt.timeline) {
      entry.label = r.str();
      entry.rounds = r.u64();
      entry.total_probes = r.u64();
      entry.max_disc = r.f64();
      entry.mean_disc = r.f64();
    }
    ckpt.before = read_u64_vec(r);
    ckpt.probes_before = r.u64();
    for (auto& s : ckpt.rng_state) s = r.u64();
    r.expect_end();
  }
  {
    BinReader r(cp.require(kSecOracle), "checkpoint oracle");
    ckpt.oracle.invocations = read_u64_vec(r);
    ckpt.oracle.charged = read_u64_vec(r);
    ckpt.oracle.probed = read_rows(r, ckpt.objects);
    ckpt.oracle.values = read_rows(r, ckpt.objects);
    r.expect_end();
    require_per_player(ckpt.oracle.invocations, ckpt.players, "oracle invocations");
    require_per_player(ckpt.oracle.charged, ckpt.players, "oracle charged");
    require_per_player(ckpt.oracle.probed, ckpt.players, "oracle probed");
    require_per_player(ckpt.oracle.values, ckpt.players, "oracle values");
  }
  {
    BinReader r(cp.require(kSecBoard), "checkpoint board");
    ckpt.board.resize(r.count(kPairBytes));
    for (auto& ch : ckpt.board) {
      ch.channel = r.str();
      for (std::size_t k = 0, np = r.count(kPairBytes); k < np; ++k) {
        const auto p = read_player(r, ckpt.players);
        auto row = r.bitvec();
        // No algorithm posts a row wider than the instance, and a
        // restored channel lays every row out at its widest row's stride.
        if (row.size() > ckpt.objects) {
          throw io::CheckpointError("checkpoint: board row of " + std::to_string(row.size()) +
                                    " bits for " + std::to_string(ckpt.objects) + " objects");
        }
        ch.posts.emplace_back(p, std::move(row));
      }
    }
    r.expect_end();
  }
  if (cp.has(kSecInjector)) {
    ckpt.has_injector = true;
    BinReader r(cp.require(kSecInjector), "checkpoint injector");
    ckpt.injector.attempts = read_u64_vec(r);
    ckpt.injector.post_seq = read_u64_vec(r);
    ckpt.injector.down = read_u8_vec(r);
    ckpt.injector.degraded = read_u8_vec(r);
    ckpt.injector.orphaned = read_u8_vec(r);
    ckpt.injector.was_crashed = read_u8_vec(r);
    ckpt.injector.was_recovered = read_u8_vec(r);
    ckpt.injector.probe_failures = r.u64();
    ckpt.injector.retries = r.u64();
    ckpt.injector.fallback_reads = r.u64();
    ckpt.injector.posts_dropped = r.u64();
    ckpt.injector.posts_delayed = r.u64();
    r.expect_end();
    require_per_player(ckpt.injector.attempts, ckpt.players, "injector attempts");
    require_per_player(ckpt.injector.post_seq, ckpt.players, "injector post_seq");
    require_per_player(ckpt.injector.down, ckpt.players, "injector down");
    require_per_player(ckpt.injector.degraded, ckpt.players, "injector degraded");
    require_per_player(ckpt.injector.orphaned, ckpt.players, "injector orphaned");
    require_per_player(ckpt.injector.was_crashed, ckpt.players, "injector was_crashed");
    require_per_player(ckpt.injector.was_recovered, ckpt.players, "injector was_recovered");
  }
  if (cp.has(kSecMetrics)) {
    ckpt.metrics_enabled = true;
    BinReader r(cp.require(kSecMetrics), "checkpoint metrics");
    ckpt.metrics = read_snapshot(r);
    r.expect_end();
  }
  {
    BinReader r(cp.require(kSecHarness), "checkpoint harness");
    ckpt.harness.resize(r.count(kPairBytes));
    for (auto& [k, v] : ckpt.harness) {
      k = r.str();
      v = r.str();
    }
    r.expect_end();
  }
  return ckpt;
}

}  // namespace

void save_run_checkpoint(const std::string& path, const RunCheckpoint& ckpt) {
  io::atomic_write_file(path, encode_run_checkpoint(ckpt));
}

RunCheckpoint load_run_checkpoint(const std::string& path) {
  const io::Checkpoint cp = io::Checkpoint::load(path);  // its errors name the path
  try {
    return from_container(cp);
  } catch (const io::CheckpointError& e) {
    throw io::CheckpointError(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace tmwia::core
