// tmwia-lint: allow-file(raw-io) bench harness: prints the table + overhead diagnostics.
// E18 — observability overhead gate for the serving path.
//
// Runs the same foreground serve workload twice per trial — telemetry
// OFF (no exporter, no profiler) and telemetry ON (profiler +
// TelemetryExporter + SLO watchdog, the full `tmwia_cli serve
// --telemetry --slo` stack) — and gates the relative slowdown:
//
//     overhead = (min_on - min_off) / min_off  <=  --max-overhead (5%)
//
// Arms are interleaved across --trials runs and the gate uses the
// best PAIRED ratio — min over trials of (on - off) / off within the
// same trial — because machine noise is correlated inside a trial and
// can exceed the budget across trials. An untimed warmup arm runs
// first so one-time costs (zone interning, allocator growth) don't
// bill the first measured trial. The MetricsRegistry is enabled in BOTH arms —
// the service always feeds it, and the gate is about the *added* cost
// of the profiler zones, the periodic exporter ticks and the watchdog
// window, not about metrics counters that predate this layer.
//
// Each arm builds its own service (fresh tenants, same seeds) and the
// timer covers the whole session — foreground refinement epochs plus
// the recommend/estimate/stats loop — the same shape as an e17 run.
// Refinement is where the profiler zones fire densest (the unknown-D
// tower), so the gate genuinely measures the deposit overhead, while
// the tick cadence (--every) is sized for the request rate: each tick
// serializes a full snapshot + exposition, so a per-request cadence
// would measure JSON encoding, not instrumentation.
//
// Usage:
//   e18_telemetry [--requests=N] [--tenants=T] [--epochs=E]
//                 [--players=n] [--objects=m] [--seed=S] [--k=K]
//                 [--trials=T] [--every=N] [--max-overhead=F]
//                 [--stream=FILE] [--json=FILE] [--kernel=B] [--threads=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/profile.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/obs/telemetry.hpp"
#include "tmwia/rng/rng.hpp"
#include "tmwia/serve/service.hpp"

namespace {

using namespace tmwia;

struct WorkloadConfig {
  std::uint64_t requests = 0;
  std::size_t tenants = 0;
  std::uint64_t epochs = 0;
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t k = 0;
  std::uint64_t seed = 0;
};

struct ArmResult {
  double wall_ms = 0.0;            // request loop only
  std::uint64_t failed = 0;        // !ok responses (any means FAIL)
  std::uint64_t records = 0;       // telemetry lines written (ON arm)
  std::uint64_t ticks = 0;         // exporter ticks (ON arm)
  std::uint64_t alerts = 0;        // SLO alerts (ON arm; expected 0)
};

// One arm: fresh service + tenants, foreground refinement, then the
// timed request loop. `telemetry` and `profiler` are null for the OFF
// arm.
ArmResult run_arm(const WorkloadConfig& w, obs::TelemetryExporter* telemetry,
                  obs::Profiler* profiler) {
  const auto start = std::chrono::steady_clock::now();
  serve::RecommendationService service;
  service.set_telemetry(telemetry);
  service.set_profiler(profiler);
  for (std::size_t t = 0; t < w.tenants; ++t) {
    serve::TenantConfig cfg;
    cfg.name = "t" + std::to_string(t);
    cfg.alpha = 0.5;
    cfg.seed = w.seed + t;
    cfg.algo = "unknown_d";
    rng::Rng gen = rng::Rng(cfg.seed).split(0x6e57, 0);
    auto inst = matrix::planted_community(w.n, w.m, {cfg.alpha, 0}, gen);
    service.add_tenant(std::move(cfg), std::move(inst));
  }
  for (std::size_t t = 0; t < w.tenants; ++t) {
    for (std::uint64_t e = 0; e < w.epochs; ++e) service.refine("t" + std::to_string(t));
  }

  ArmResult res;
  for (std::uint64_t i = 0; i < w.requests; ++i) {
    const std::string tenant = "t" + std::to_string(i % w.tenants);
    const auto player = static_cast<std::uint32_t>((i / w.tenants) % w.n);
    serve::Response r;
    switch (i % 8) {
      case 3: r = service.estimate(tenant, player); break;
      case 7: r = service.stats(tenant); break;
      default: r = service.recommend(tenant, player, w.k); break;
    }
    if (!r.ok) ++res.failed;
  }
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  // Every run here happens inside a serve tenant, which owns its flight
  // log (TenantConfig::record_path); --record would write nothing.
  if (args.get("record").has_value()) {
    std::fprintf(stderr, "error: --record is not supported: tenants own their flight logs\n");
    return 2;
  }
  bench::BenchReport report(args, "e18_telemetry");

  WorkloadConfig w;
  w.requests = args.get_u64("requests", 20000);
  w.tenants = static_cast<std::size_t>(args.get_u64("tenants", 2));
  w.epochs = args.get_u64("epochs", 5);
  w.n = static_cast<std::size_t>(args.get_u64("players", 48));
  w.m = static_cast<std::size_t>(args.get_u64("objects", 96));
  w.k = static_cast<std::size_t>(args.get_u64("k", 8));
  w.seed = args.get_u64("seed", 1);
  const auto trials = static_cast<std::size_t>(args.get_u64("trials", 3));
  const auto every = static_cast<std::size_t>(args.get_u64("every", 2048));
  const double max_overhead = args.get_double("max-overhead", 0.05);
  const std::string stream_path =
      args.get("stream").value_or(bench::default_json_path("e18_stream") + "l");

  // Both arms feed the registry; only the ON arm adds profiler +
  // exporter + watchdog on top.
  obs::MetricsRegistry::global().set_enabled(true);

  // The ON arms' profiler. Warmup (untimed): a small ON arm interns
  // every dynamic profile zone and grows the exporter's buffers once,
  // off the clock.
  obs::Profiler profiler;
  {
    obs::SloWatchdog warm_watchdog(obs::SloSpec::parse("degraded=0,window=256"));
    obs::TelemetryConfig warm_cfg;
    warm_cfg.path = stream_path;
    warm_cfg.every = every;
    obs::TelemetryExporter warm_exporter(warm_cfg, obs::MetricsRegistry::global(), &profiler,
                                         &warm_watchdog);
    WorkloadConfig warm = w;
    warm.requests = w.requests / 4;
    warm.epochs = 1;
    (void)run_arm(warm, &warm_exporter, &profiler);
  }

  double min_off = 0.0;
  double min_on = 0.0;
  double best_overhead = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t records = 0;
  std::uint64_t ticks = 0;
  std::uint64_t alerts = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    // OFF arm.
    const ArmResult off = run_arm(w, nullptr, nullptr);
    failed += off.failed;

    // ON arm: full serve observability stack, fresh stream each trial.
    profiler.reset();
    obs::SloWatchdog watchdog(
        obs::SloSpec::parse("p99_us=60000000,staleness=64,degraded=0,window=256"));
    obs::TelemetryConfig tcfg;
    tcfg.path = stream_path;
    tcfg.every = every;
    ArmResult on;
    {
      obs::TelemetryExporter exporter(tcfg, obs::MetricsRegistry::global(), &profiler,
                                      &watchdog);
      on = run_arm(w, &exporter, &profiler);
      exporter.finish();
      on.records = exporter.records_written();
      on.ticks = exporter.ticks();
      on.alerts = exporter.alerts_written();
    }
    failed += on.failed;
    records = on.records;  // per-trial stream; keep the last
    ticks = on.ticks;
    alerts += on.alerts;

    const double paired =
        off.wall_ms > 0.0 ? (on.wall_ms - off.wall_ms) / off.wall_ms : 0.0;
    if (trial == 0 || off.wall_ms < min_off) min_off = off.wall_ms;
    if (trial == 0 || on.wall_ms < min_on) min_on = on.wall_ms;
    if (trial == 0 || paired < best_overhead) best_overhead = paired;
    std::fprintf(stderr, "e18: trial %zu: off=%.1fms on=%.1fms paired=%.2f%%\n", trial,
                 off.wall_ms, on.wall_ms, paired * 100.0);
  }

  const double overhead = best_overhead;

  io::Table table("E18: telemetry overhead on the serve hot path",
                  {{"requests"}, {"trials"}, {"off_ms", 1}, {"on_ms", 1},
                   {"overhead_pct", 2}, {"records"}, {"ticks"}});
  table.add_row({static_cast<long long>(w.requests), static_cast<long long>(trials),
                 min_off, min_on, overhead * 100.0, static_cast<long long>(records),
                 static_cast<long long>(ticks)});
  table.print(std::cout);
  bench::maybe_write_csv(args, table, "e18_telemetry");

  report.metric("requests", static_cast<double>(w.requests));
  report.metric("trials", static_cast<double>(trials));
  report.metric("wall_off_ms", min_off);
  report.metric("wall_on_ms", min_on);
  report.metric("overhead_pct", overhead * 100.0);
  report.metric("max_overhead_pct", max_overhead * 100.0);
  report.metric("telemetry_records", static_cast<double>(records));
  report.metric("ticks", static_cast<double>(ticks));
  report.metric("alerts", static_cast<double>(alerts));

  // Gate: responses all served, a stream actually materialized (the ON
  // arm must tick at least once), no spurious SLO alerts, and the
  // telemetry stack cost at most --max-overhead of the OFF hot path.
  const bool ok = failed == 0 && records > 0 && ticks > 0 && alerts == 0 &&
                  overhead <= max_overhead;
  if (overhead > max_overhead) {
    std::fprintf(stderr, "e18: overhead %.2f%% exceeds budget %.2f%%\n", overhead * 100.0,
                 max_overhead * 100.0);
  }
  return report.finish(ok);
}
