// tmwia-lint: allow-file(raw-io) bench harness: best-effort stderr warnings on sink-file open failure.
// Shared helpers for the experiment harnesses (bench/e*_*.cpp).
//
// Every experiment binary:
//   * prints the table(s) it reproduces via io::Table,
//   * accepts --seed=... and --trials=... where it makes sense,
//   * finishes with a PASS/FAIL verdict line against the paper's bound
//     so `for b in build/bench/*; do $b; done` doubles as a check,
//   * writes a machine-readable BENCH_<name>.json via BenchReport so
//     the perf trajectory accumulates run over run.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/core/session.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/matrix/preference_matrix.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"

namespace tmwia::bench {

inline std::vector<matrix::PlayerId> iota_players(std::size_t n) {
  std::vector<matrix::PlayerId> p(n);
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

inline std::vector<std::uint32_t> iota_objects(std::size_t m) {
  std::vector<std::uint32_t> o(m);
  std::iota(o.begin(), o.end(), 0u);
  return o;
}

/// Mean per-player output error over the given ids.
inline double mean_error(const std::vector<bits::BitVector>& outputs,
                         const matrix::PreferenceMatrix& truth,
                         const std::vector<matrix::PlayerId>& ids) {
  std::size_t total = 0;
  for (auto p : ids) total += outputs[p].hamming(truth.row(p));
  return static_cast<double>(total) / static_cast<double>(ids.size());
}

/// Emit the final verdict line shared by all harnesses.
inline int verdict(const std::string& experiment, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", experiment.c_str());
  return ok ? 0 : 1;
}

/// Default BENCH json location for one experiment: --json wins;
/// otherwise $TMWIA_BENCH_DIR/BENCH_<name>.json when the env var is set
/// (tools/bench/bench_history.py points every binary at one directory
/// this way), else ./BENCH_<name>.json.
inline std::string default_json_path(const std::string& name) {
  const char* dir = std::getenv("TMWIA_BENCH_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    return std::string(dir) + "/BENCH_" + name + ".json";
  }
  return "BENCH_" + name + ".json";
}

/// Per-experiment machine-readable reporting plus the shared
/// observability flags. Construct it first thing in main:
///
///   BenchReport report(args, "e8_main_theorem");
///   ...
///   report.metric("rounds", rounds);
///   report.metric("stretch", stretch);
///   return report.finish(ok);
///
/// Handled flags:
///   --json=FILE     where to write the report (default BENCH_<name>.json,
///                   under $TMWIA_BENCH_DIR when that is set)
///   --metrics=FILE  final global-registry snapshot as one-line JSON
///   --record=FILE   flight-recorder event log (see `tmwia_cli inspect`)
///                   of the runs whose oracle the bench passes to
///                   attach(); e17/e18, whose runs happen inside serve
///                   tenants that own their logs, reject it
///   --threads=N     global thread-pool size (0 = hardware)
///   --kernel=B      distance-kernel backend: scalar|avx2|avx512|auto
///
/// An unknown --kernel exits 2.
///
/// finish() prints the usual [PASS]/[FAIL] verdict line and writes
/// {"bench":...,"kernel":...,"ok":...,"wall_ms":...,"metrics":{...}}
/// where "kernel" is the resolved (never "auto") backend the run used.
/// Wall time is only in the BENCH json — the --metrics/--record
/// artifacts stay byte-identical across --threads and --kernel for a
/// fixed seed.
class BenchReport {
 public:
  BenchReport(const io::Args& args, std::string name)
      : name_(std::move(name)),
        json_path_(args.get("json").value_or(default_json_path(name_))),
        metrics_path_(args.get("metrics").value_or("")),
        start_(std::chrono::steady_clock::now()) {
    engine::set_global_threads(static_cast<std::size_t>(args.get_u64("threads", 0)));
    if (const auto k = args.get("kernel"); k.has_value()) {
      const auto backend = bits::kernels::parse_backend(*k);
      if (!backend.has_value()) {
        std::fprintf(stderr, "error: unknown --kernel backend '%s'\n", k->c_str());
        std::exit(2);
      }
      bits::kernels::set_backend(*backend);  // throws if the CPU can't run it
    }
    if (!metrics_path_.empty()) obs::MetricsRegistry::global().set_enabled(true);
    if (const auto record_path = args.get("record"); record_path.has_value()) {
      try {
        record_ = std::make_unique<obs::RecordSink>(*record_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: %s\n", e.what());
      }
    }
  }

  /// Attach the planted truth so --record phase summaries carry
  /// max/mean discrepancy (harness side only; `truth` must stay alive
  /// for the run).
  void record_truth(const matrix::PreferenceMatrix& truth) {
    if (record_ != nullptr) record_->recorder().set_output_evaluator(make_truth_evaluator(truth));
  }

  /// Attach the --record sink to a run's oracle and, when the run has
  /// one, its billboard. Call at every oracle the bench builds, before
  /// its first probe; without --record this does nothing.
  void attach(billboard::ProbeOracle& oracle, billboard::Billboard* board = nullptr) {
    if (record_ == nullptr) return;
    oracle.set_recorder(&record_->recorder());
    if (board != nullptr) board->set_recorder(&record_->recorder());
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void metric(const std::string& key, double v) { metrics_[key] = v; }

  /// The oracle ledgers, under the conventional keys.
  void oracle_totals(const billboard::ProbeOracle& oracle) {
    metric("rounds", static_cast<double>(oracle.max_invocations()));
    metric("total_probes", static_cast<double>(oracle.total_invocations()));
  }

  int finish(bool ok) {
    const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    record_.reset();  // flushes and closes the log
    if (!metrics_path_.empty()) {
      try {
        io::atomic_write_file(metrics_path_,
                              obs::MetricsRegistry::global().snapshot().to_json() + "\n");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "warning: cannot write %s: %s\n", metrics_path_.c_str(),
                     e.what());
      }
    }
    std::ostringstream js;
    js << "{\"bench\":\"" << name_ << "\",\"kernel\":\""
       << bits::kernels::backend_name(bits::kernels::active_backend())
       << "\",\"ok\":" << (ok ? "true" : "false") << ",\"wall_ms\":" << wall_ms
       << ",\"metrics\":{";
    bool first = true;
    for (const auto& [key, v] : metrics_) {
      if (!first) js << ',';
      first = false;
      js << '"' << key << "\":";
      char buf[40];
      if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
      }
      js << buf;
    }
    js << "}}\n";
    try {
      // The trajectory tooling may read BENCH_*.json while a bench is
      // re-running; the atomic path means it never sees a torn file.
      io::atomic_write_file(json_path_, js.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: cannot write %s: %s\n", json_path_.c_str(), e.what());
    }
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", name_.c_str());
    return ok ? 0 : 1;
  }

 private:
  std::string name_;
  std::string json_path_;
  std::string metrics_path_;
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, double> metrics_;
  std::unique_ptr<obs::RecordSink> record_;
};

/// If the harness was invoked with --csv=DIR, mirror `table` to
/// DIR/<name>.csv for plotting.
inline void maybe_write_csv(const io::Args& args, const io::Table& table,
                            const std::string& name) {
  const auto dir = args.get("csv");
  if (!dir) return;
  const std::string path = *dir + "/" + name + ".csv";
  std::ostringstream os;
  table.write_csv(os);
  try {
    io::atomic_write_file(path, os.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(), e.what());
  }
}

}  // namespace tmwia::bench
