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
constexpr const char* kSecReport = "report";
constexpr const char* kSecOracle = "oracle";
constexpr const char* kSecBoard = "board";
constexpr const char* kSecInjector = "injector";
constexpr const char* kSecMetrics = "metrics";
constexpr const char* kSecHarness = "harness";

void write_u64_vec(BinWriter& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u64(x);
}

std::vector<std::uint64_t> read_u64_vec(BinReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::uint64_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.u64());
  return v;
}

void write_size_vec(BinWriter& w, const std::vector<std::size_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u64(x);
}

std::vector<std::size_t> read_size_vec(BinReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::size_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(static_cast<std::size_t>(r.u64()));
  return v;
}

void write_u8_vec(BinWriter& w, const std::vector<std::uint8_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u8(x);
}

std::vector<std::uint8_t> read_u8_vec(BinReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::uint8_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.u8());
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

void write_bitvec_vec(BinWriter& w, const std::vector<bits::BitVector>& v) {
  w.u64(v.size());
  for (const auto& x : v) w.bitvec(x);
}

std::vector<bits::BitVector> read_bitvec_vec(BinReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<bits::BitVector> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.bitvec());
  return v;
}

}  // namespace

std::string RunCheckpoint::harness_value(const std::string& key) const {
  for (const auto& [k, v] : harness) {
    if (k == key) return v;
  }
  return {};
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
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    std::string name = r.str();
    snap.counters.emplace(std::move(name), r.u64());
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    std::string name = r.str();
    snap.gauges.emplace(std::move(name), r.i64());
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
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

void write_run_report(BinWriter& w, const RunReport& report) {
  w.u8(static_cast<std::uint8_t>(report.algo));
  write_bitvec_vec(w, report.outputs);
  w.u64(report.rounds);
  w.u64(report.total_probes);
  w.u8(static_cast<std::uint8_t>(report.branch));
  write_size_vec(w, report.chosen_d);
  write_size_vec(w, report.guesses);
  w.u64(report.phases.size());
  for (const auto& ph : report.phases) {
    w.f64(ph.alpha);
    w.u64(ph.rounds);
    w.u64(ph.total_probes);
  }
  w.u64(report.timeline.size());
  for (const auto& cp : report.timeline) {
    w.str(cp.label);
    w.u64(cp.rounds);
    w.u64(cp.total_probes);
    w.f64(cp.max_disc);
    w.f64(cp.mean_disc);
  }
  write_snapshot(w, report.metrics);
  w.u64(report.degraded.quarantined.size());
  for (const auto p : report.degraded.quarantined) w.u64(p);
  w.u64(report.degraded.unmet_phases.size());
  for (const auto& ph : report.degraded.unmet_phases) w.str(ph);
}

RunReport read_run_report(BinReader& r, std::uint64_t players) {
  RunReport report;
  report.algo = static_cast<RunReport::Algo>(r.u8());
  report.outputs = read_bitvec_vec(r);
  report.rounds = r.u64();
  report.total_probes = r.u64();
  report.branch = static_cast<Branch>(r.u8());
  report.chosen_d = read_size_vec(r);
  report.guesses = read_size_vec(r);
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    AnytimePhase ph;
    ph.alpha = r.f64();
    ph.rounds = r.u64();
    ph.total_probes = r.u64();
    report.phases.push_back(ph);
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    PhaseCheckpoint cp;
    cp.label = r.str();
    cp.rounds = r.u64();
    cp.total_probes = r.u64();
    cp.max_disc = r.f64();
    cp.mean_disc = r.f64();
    report.timeline.push_back(std::move(cp));
  }
  report.metrics = read_snapshot(r);
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    report.degraded.quarantined.push_back(read_player(r, players));
  }
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    report.degraded.unmet_phases.push_back(r.str());
  }
  return report;
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
    w.u64(ckpt.next_guess);
    w.u64(ckpt.versions.size());
    for (const auto& v : ckpt.versions) write_bitvec_vec(w, v);
    write_u64_vec(w, ckpt.before);
    w.u64(ckpt.probes_before);
    for (const auto s : ckpt.rng_state) w.u64(s);
    cp.set(kSecTower, w.take());
  }
  {
    BinWriter w;
    write_run_report(w, ckpt.partial);
    cp.set(kSecReport, w.take());
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

RunCheckpoint decode_run_checkpoint(std::string_view bytes) {
  const io::Checkpoint cp = io::Checkpoint::decode(bytes);
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
  }
  {
    BinReader r(cp.require(kSecTower), "checkpoint tower");
    ckpt.next_guess = static_cast<std::size_t>(r.u64());
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
      ckpt.versions.push_back(read_bitvec_vec(r));
    }
    ckpt.before = read_u64_vec(r);
    ckpt.probes_before = r.u64();
    for (auto& s : ckpt.rng_state) s = r.u64();
  }
  {
    BinReader r(cp.require(kSecReport), "checkpoint report");
    ckpt.partial = read_run_report(r, ckpt.players);
  }
  {
    BinReader r(cp.require(kSecOracle), "checkpoint oracle");
    ckpt.oracle.invocations = read_u64_vec(r);
    ckpt.oracle.charged = read_u64_vec(r);
    ckpt.oracle.probed = read_bitvec_vec(r);
    ckpt.oracle.values = read_bitvec_vec(r);
  }
  {
    BinReader r(cp.require(kSecBoard), "checkpoint board");
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
      billboard::Billboard::ChannelDump ch;
      ch.channel = r.str();
      for (std::uint64_t k = 0, np = r.u64(); k < np; ++k) {
        const auto p = read_player(r, ckpt.players);
        ch.posts.emplace_back(p, r.bitvec());
      }
      ckpt.board.push_back(std::move(ch));
    }
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
  }
  if (cp.has(kSecMetrics)) {
    ckpt.metrics_enabled = true;
    BinReader r(cp.require(kSecMetrics), "checkpoint metrics");
    ckpt.metrics = read_snapshot(r);
  }
  {
    BinReader r(cp.require(kSecHarness), "checkpoint harness");
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
      std::string k = r.str();
      std::string v = r.str();
      ckpt.harness.emplace_back(std::move(k), std::move(v));
    }
  }
  return ckpt;
}

void save_run_checkpoint(const std::string& path, const RunCheckpoint& ckpt) {
  io::atomic_write_file(path, encode_run_checkpoint(ckpt));
}

RunCheckpoint load_run_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw io::CheckpointError("checkpoint: cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) throw io::CheckpointError("checkpoint: read error on " + path);
  try {
    return decode_run_checkpoint(bytes);
  } catch (const io::CheckpointError& e) {
    throw io::CheckpointError(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace tmwia::core
