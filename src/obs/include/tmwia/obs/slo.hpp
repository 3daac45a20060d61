// SLO watchdog: rolling-window evaluation of declared service-level
// objectives for the serving path.
//
// The operator declares objectives as a spec string
// ("p99_us=5000,staleness=4,degraded=0,audit=0,window=512"); absent
// keys leave that objective disabled. The watchdog keeps the last
// `window` requests (latency, cache staleness, degraded flag) in a
// ring plus a cumulative audit-violation count, and evaluate() checks
// every enabled objective against the current window:
//
//   p99_us     p99 request latency (exact order statistic over the
//              window, not a bucketed estimate) must be <= threshold
//   staleness  max epochs-behind served in the window must be <=
//   degraded   degraded responses in the window must be <=
//   audit      cumulative protocol-audit violations must be <=
//
// Each evaluation is level-triggered: every objective out of bounds
// yields one SloAlert (the telemetry stream writes these as
// {"kind":"alert",...} records). report() summarizes worst observed
// values and breach counts; breached() is sticky — once any objective
// has ever alerted, the serve session exits with the SLO-breach code.
//
// Thread-safety: one mutex guards everything; observers are request
// threads, evaluate()/report() run on the telemetry tick. The
// watchdog is judgment, not attribution — determinism of the
// *decision* follows from the deterministic request stream only for
// the logical objectives (staleness/degraded/audit); latency
// objectives are inherently wall-clock and belong to live operation,
// not to replay checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {

/// The largest rolling window, in requests: the watchdog allocates its
/// ring up front, 24 bytes a request, so 2^20 requests take 24 MiB.
inline constexpr std::size_t kMaxSloWindow = std::size_t{1} << 20;

/// Parsed objective spec. Negative threshold = objective disabled.
struct SloSpec {
  double p99_us = -1.0;       ///< max p99 request latency, microseconds
  std::int64_t staleness = -1;  ///< max epochs-behind served
  std::int64_t degraded = -1;   ///< max degraded responses per window
  std::int64_t audit = -1;      ///< max cumulative audit violations
  std::size_t window = 256;     ///< rolling window, in requests

  /// Parse "key=value,..." with keys p99_us, staleness, degraded,
  /// audit, window. Absent keys keep the objective disabled. Each value
  /// must parse whole: p99_us a finite number >= 0; staleness,
  /// degraded and audit whole numbers below 2^63; window a whole
  /// number in [1, kMaxSloWindow]. Throws std::invalid_argument, naming
  /// the key, on unknown keys or bad values.
  static SloSpec parse(std::string_view spec);

  /// True when at least one objective is enabled.
  [[nodiscard]] bool any() const {
    return p99_us >= 0 || staleness >= 0 || degraded >= 0 || audit >= 0;
  }
};

/// One objective out of bounds at one evaluation.
struct SloAlert {
  std::uint64_t seq = 0;     ///< telemetry tick sequence that caught it
  std::string objective;     ///< "p99_us" | "staleness" | "degraded" | "audit"
  double observed = 0.0;
  double threshold = 0.0;
  std::uint64_t window_count = 0;  ///< requests in the window evaluated

  /// {"kind":"alert","seq":S,"objective":O,"observed":X,
  ///  "threshold":T,"window":N} — one line, byte-stable key order.
  [[nodiscard]] std::string to_json() const;
};

/// End-of-session verdict across all evaluations.
struct SloReport {
  struct Objective {
    std::string name;
    double threshold = 0.0;
    double worst = 0.0;        ///< worst value seen at any evaluation
    std::uint64_t breaches = 0;  ///< evaluations that alerted
    bool ok = true;
  };
  std::vector<Objective> objectives;  ///< enabled objectives, spec order
  std::uint64_t evaluations = 0;
  bool ok = true;  ///< false if any objective ever alerted

  /// {"ok":B,"evaluations":N,"objectives":[{"name":...,"threshold":T,
  ///  "worst":W,"breaches":B,"ok":B},...]} — one line.
  [[nodiscard]] std::string to_json() const;
};

class SloWatchdog {
 public:
  explicit SloWatchdog(SloSpec spec);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  /// Record one served request (any request thread).
  void observe_request(std::uint64_t latency_us, std::uint64_t staleness_epochs,
                       bool degraded) TMWIA_EXCLUDES(mu_);

  /// Record protocol-audit violations (cumulative; pass the delta).
  void observe_audit_violations(std::uint64_t count) TMWIA_EXCLUDES(mu_);

  /// Check every enabled objective against the current window; returns
  /// one alert per objective out of bounds. `seq` tags the alerts with
  /// the telemetry tick that ran the evaluation.
  [[nodiscard]] std::vector<SloAlert> evaluate(std::uint64_t seq) TMWIA_EXCLUDES(mu_);

  /// True once any objective has ever alerted (sticky).
  [[nodiscard]] bool breached() const TMWIA_EXCLUDES(mu_);

  [[nodiscard]] SloReport report() const TMWIA_EXCLUDES(mu_);

 private:
  struct Sample {
    std::uint64_t latency_us = 0;
    std::uint64_t staleness = 0;
    bool degraded = false;
  };

  const SloSpec spec_;
  mutable support::Mutex mu_;
  std::vector<Sample> ring_ TMWIA_GUARDED_BY(mu_);
  std::size_t ring_next_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t seen_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t audit_violations_ TMWIA_GUARDED_BY(mu_) = 0;
  std::uint64_t evaluations_ TMWIA_GUARDED_BY(mu_) = 0;
  /// Worst-observed / breach-count cells, indexed like the spec order
  /// p99_us, staleness, degraded, audit.
  struct Track {
    double worst = 0.0;
    std::uint64_t breaches = 0;
  };
  Track tracks_[4] TMWIA_GUARDED_BY(mu_);
};

}  // namespace tmwia::obs
