// tmwia-lint: allow-file(raw-io) bench harness: prints the table + audit diagnostics.
// E17 — serving-layer load harness.
//
// Stands up a RecommendationService with several planted-community
// tenants, runs the background refiner concurrently with a sustained
// mixed recommend/estimate request stream from the foreground thread,
// and then checks the serving contract end to end:
//
//   * every response's (epoch, cache_hash) pair matches the service's
//     publish ledger — a torn or mixed-version read could not,
//   * every tenant's ProtocolAuditor is clean over all refinement
//     traffic,
//   * every tenant published at least --min-epochs refinement epochs,
//   * no response came back degraded (no faults are injected here).
//
// Latency percentiles (p50/p95/p99) and cache staleness come from the
// global MetricsRegistry histograms the service feeds — the same series
// `tmwia_cli serve --metrics=...` exports — so the BENCH json measures
// the production instrumentation path, not a bench-local stopwatch.
//
// Usage:
//   e17_serve [--requests=N] [--tenants=T] [--epochs=E] [--min-epochs=M]
//             [--players=n] [--objects=m] [--seed=S] [--k=K]
//             [--json=FILE] [--kernel=B] [--threads=N]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/rng/rng.hpp"
#include "tmwia/serve/service.hpp"

namespace {

using namespace tmwia;

struct TenantUnderTest {
  std::string name;
  matrix::PreferenceMatrix truth;  // kept to score final estimate quality
  std::size_t players = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  // Every run here happens inside a serve tenant, which owns its flight
  // log (TenantConfig::record_path); --record would write nothing.
  if (args.get("record").has_value()) {
    std::fprintf(stderr, "error: --record is not supported: tenants own their flight logs\n");
    return 2;
  }
  bench::BenchReport report(args, "e17_serve");

  const auto requests = args.get_u64("requests", 100000);
  const auto tenant_count = static_cast<std::size_t>(args.get_u64("tenants", 2));
  const auto epochs = args.get_u64("epochs", 6);
  const auto min_epochs = args.get_u64("min-epochs", 2);
  const auto n = static_cast<std::size_t>(args.get_u64("players", 48));
  const auto m = static_cast<std::size_t>(args.get_u64("objects", 96));
  const auto k = static_cast<std::size_t>(args.get_u64("k", 8));
  const std::uint64_t seed = args.get_u64("seed", 1);

  // The service reports through the global registry whether or not the
  // caller asked for a --metrics artifact; the percentiles below need it.
  obs::MetricsRegistry::global().set_enabled(true);

  serve::RecommendationService service;
  std::vector<TenantUnderTest> tenants;
  tenants.reserve(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    serve::TenantConfig cfg;
    cfg.name = "t" + std::to_string(t);
    cfg.alpha = 0.5;
    cfg.seed = seed + t;  // distinct hidden matrices per tenant
    cfg.algo = "unknown_d";
    rng::Rng gen = rng::Rng(cfg.seed).split(0x6e57, 0);
    auto inst = matrix::planted_community(n, m, {cfg.alpha, 0}, gen);
    tenants.push_back(TenantUnderTest{cfg.name, inst.matrix, n});
    service.add_tenant(std::move(cfg), std::move(inst));
  }

  service.start_refiner(epochs);

  // Foreground load: round-robin tenants, 3:1 recommend:estimate mix,
  // sweeping players. Runs while the refiner publishes new versions.
  std::uint64_t bad = 0;           // !ok or missing view
  std::uint64_t hash_mismatch = 0; // (epoch, hash) not in the publish ledger
  std::uint64_t degraded = 0;
  std::uint64_t max_staleness = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    const auto& t = tenants[i % tenants.size()];
    const auto player = static_cast<std::uint32_t>((i / tenants.size()) % t.players);
    const serve::Response r = (i % 4 == 3) ? service.estimate(t.name, player)
                                           : service.recommend(t.name, player, k);
    if (!r.ok || !r.has_view) {
      ++bad;
      continue;
    }
    if (service.published_hash(t.name, r.epoch) != r.cache_hash || r.cache_hash == 0) {
      ++hash_mismatch;
    }
    if (r.degraded) ++degraded;
    if (r.staleness > max_staleness) max_staleness = r.staleness;
  }

  service.stop_refiner();

  // Top the slower tenants up so the epoch floor is about the contract,
  // not about how far the refiner happened to get during the stream.
  for (const auto& t : tenants) {
    while (service.tenant(t.name)->epochs_published() < min_epochs) service.refine(t.name);
  }

  bool audits_clean = true;
  bool epochs_met = true;
  double mean_err = 0.0;
  std::uint64_t total_probes = 0;
  std::uint64_t rounds = 0;
  for (const auto& t : tenants) {
    serve::Tenant* tenant = service.tenant(t.name);
    if (!tenant->audit().clean()) {
      audits_clean = false;
      std::fprintf(stderr, "e17: tenant %s failed its protocol audit\n", t.name.c_str());
    }
    if (tenant->epochs_published() < min_epochs) epochs_met = false;
    const auto v = tenant->cache().current();
    mean_err += bench::mean_error(v->estimates, t.truth, bench::iota_players(t.players));
    total_probes += tenant->total_probes();
    rounds += tenant->rounds();
  }
  mean_err /= static_cast<double>(tenants.size());

  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto& lat = snap.histograms.at("serve.request_us");
  const auto& stale = snap.histograms.at("serve.staleness_epochs");

  io::Table table("E17: serving layer under mixed load",
                  {{"requests"}, {"tenants"}, {"epochs"}, {"p50_us", 1}, {"p95_us", 1},
                   {"p99_us", 1}, {"stale_p95", 2}, {"mean_err", 3}});
  table.add_row({static_cast<long long>(requests), static_cast<long long>(tenant_count),
                 static_cast<long long>(epochs), lat.percentile(0.50), lat.percentile(0.95),
                 lat.percentile(0.99), stale.percentile(0.95), mean_err});
  table.print(std::cout);
  bench::maybe_write_csv(args, table, "e17_serve");

  report.metric("requests", static_cast<double>(requests));
  report.metric("tenants", static_cast<double>(tenant_count));
  report.metric("bad_responses", static_cast<double>(bad));
  report.metric("hash_mismatches", static_cast<double>(hash_mismatch));
  report.metric("degraded_responses", static_cast<double>(degraded));
  report.metric("p50_us", lat.percentile(0.50));
  report.metric("p95_us", lat.percentile(0.95));
  report.metric("p99_us", lat.percentile(0.99));
  report.metric("staleness_p95", stale.percentile(0.95));
  report.metric("max_staleness", static_cast<double>(max_staleness));
  report.metric("mean_error", mean_err);
  report.metric("total_probes", static_cast<double>(total_probes));
  report.metric("rounds", static_cast<double>(rounds));

  const bool ok = bad == 0 && hash_mismatch == 0 && degraded == 0 && audits_clean &&
                  epochs_met && !service.any_degraded();
  return report.finish(ok);
}
