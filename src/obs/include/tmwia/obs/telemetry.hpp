// TelemetryExporter: periodic live export of metrics + profiler state
// for the serving path.
//
// The service reports every request via observe_request(); every
// `every`-th request closes a *tick*. A tick appends to the JSONL
// stream at `path`:
//
//   {"kind":"snapshot","seq":S,"requests":N,"metrics":{...}
//    [,"profile":{...}]}          one per tick
//   {"kind":"exemplar","seq":S,"tenant":T,"op":O,"latency_us":L,
//    "staleness":E,"degraded":B}  top-K slowest requests of the tick
//   {"kind":"alert",...}          SLO objectives out of bounds (slo.hpp)
//
// and finish() appends the final {"kind":"slo_report",...} verdict.
// Alongside the stream, each tick rewrites `path`.prom — a
// Prometheus-style text exposition of the same snapshot (atomic
// tmp+rename swap, so a scraper never reads a torn file).
//
// Cadence is *count-based*, not timer-based: a replayed request
// stream produces the same number of snapshot records every run, so
// tests can assert on stream shape. (Record *contents* include
// latencies — only counts and key shape are replay-stable.)
//
// Thread-safety: one mutex serializes everything (request threads
// call observe_request; the closing thread calls finish). The serve
// request path pays one lock + vector push per request plus the full
// tick work every `every` requests — e18 gates the total overhead.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {

struct TelemetryConfig {
  std::string path;               ///< JSONL stream; exposition lands at path + ".prom"
  std::size_t every = 64;         ///< requests per tick (>= 1)
  std::size_t exemplars = 4;      ///< slowest requests exported per tick
  bool write_exposition = true;   ///< rewrite path.prom each tick
  bool include_profile = true;    ///< embed the profiler's tree in snapshots (when given one)
};

class TelemetryExporter {
 public:
  /// `registry` must outlive the exporter; `profiler` and `watchdog`
  /// are optional (nullptr = that facet off). Given the profiler the
  /// service deposits into (RecommendationService::set_profiler), each
  /// snapshot embeds the session's tree so far. Opens the stream
  /// immediately; throws std::runtime_error when the path cannot be
  /// opened.
  TelemetryExporter(TelemetryConfig cfg, MetricsRegistry& registry,
                    Profiler* profiler = nullptr, SloWatchdog* watchdog = nullptr);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Record one served request; every `every`-th call runs a tick.
  void observe_request(std::string_view tenant, std::string_view op,
                       std::uint64_t latency_us, std::uint64_t staleness_epochs,
                       bool degraded) TMWIA_EXCLUDES(mu_);

  /// Final tick over any unexported requests, then the slo_report
  /// record (when a watchdog is attached); flushes the stream.
  /// Idempotent; the destructor calls it.
  void finish() TMWIA_EXCLUDES(mu_);

  [[nodiscard]] std::uint64_t ticks() const TMWIA_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t records_written() const TMWIA_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t alerts_written() const TMWIA_EXCLUDES(mu_);

 private:
  struct Pending {
    std::string tenant;
    std::string op;
    std::uint64_t latency_us = 0;
    std::uint64_t staleness = 0;
    bool degraded = false;
  };

  void tick_locked() TMWIA_REQUIRES(mu_);
  void write_line_locked(const std::string& line) TMWIA_REQUIRES(mu_);
  void write_exposition_locked(const Snapshot& snap) TMWIA_REQUIRES(mu_);

  const TelemetryConfig cfg_;
  MetricsRegistry& registry_;
  Profiler* profiler_;
  SloWatchdog* watchdog_;

  mutable support::Mutex mu_;
  // tmwia-lint: allow(durable-write) streaming telemetry sink: append-only JSONL, torn tail tolerated by readers
  std::ofstream out_ TMWIA_GUARDED_BY(mu_);
  std::vector<Pending> window_ TMWIA_GUARDED_BY(mu_);
  std::uint64_t seq_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t since_tick_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t total_requests_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t records_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t alerts_ TMWIA_GUARDED_BY(mu_) = 0;
  bool finished_ TMWIA_GUARDED_BY(mu_) = false;
};

/// Render a metrics snapshot as Prometheus text exposition: names are
/// prefixed "tmwia_" with dots mapped to underscores; counters and
/// gauges become single samples, histograms the _bucket{le=...}/_sum/
/// _count triplet (cumulative buckets, closing with le="+Inf").
[[nodiscard]] std::string prometheus_exposition(const Snapshot& snap);

}  // namespace tmwia::obs
