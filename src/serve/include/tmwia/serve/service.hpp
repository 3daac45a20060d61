// serve::RecommendationService — long-lived multi-tenant front end over
// the algorithm tower.
//
// The service owns one Tenant per name and splits the work across two
// thread roles:
//
//  * Request threads answer recommend/estimate/stats synchronously from
//    each tenant's published AnswerCache: one acquire load of the
//    current version, then everything — items, epoch, content hash,
//    staleness — comes from that immutable object. A response can
//    therefore never mix two versions, which the per-epoch hash ledger
//    (published_hash) lets tests and the e17 harness verify response by
//    response.
//  * Refiners run epochs. refine() and the background refiner thread
//    serialize on each tenant's own lock: one tenant's epochs, snapshot
//    and restore run one at a time, while two different tenants may
//    refine at the same time (each records into its own oracle's
//    recorder). The background refiner is a dedicated std::thread
//    (never a pool task: the epoch's parallel_for loops would run
//    inline on that one worker) that round-robins one epoch per tenant
//    until stopped or every tenant reaches its epoch cap.
//
// Request metrics land in the global MetricsRegistry under "serve.*"
// (request-latency and staleness histograms, request/degraded
// counters), plus per-tenant namespaced "serve.<name>.*" series. Costs
// go to the profiler installed with set_profiler, on whichever thread
// the work runs (request threads, refine() callers, the background
// refiner); a service without one profiles nothing of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/obs/telemetry.hpp"
#include "tmwia/serve/protocol.hpp"
#include "tmwia/serve/tenant.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::serve {

/// The largest instance add_tenant generates from "n" and "m". Per
/// player a tenant keeps a matrix row and two oracle rows of m bits
/// each, plus about 136 bytes of row headers and ledgers:
/// kMaxTenantCells bounds the bits (n·m cells, 1.5 GiB) and
/// kMaxTenantPlayers the per-player part (0.6 GiB). Every shape the
/// tests, benches and perfbench use is far below both; a request above
/// either fails before anything is allocated.
inline constexpr std::uint64_t kMaxTenantPlayers = std::uint64_t{1} << 22;
inline constexpr std::uint64_t kMaxTenantCells = std::uint64_t{1} << 32;

class RecommendationService {
 public:
  RecommendationService();
  ~RecommendationService();  ///< stops the background refiner

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  // ---- tenant management -------------------------------------------

  /// Register a tenant (throws std::invalid_argument on a duplicate
  /// name) and record its epoch-0 hash in the publish ledger.
  Tenant& add_tenant(TenantConfig cfg, matrix::Instance inst);
  [[nodiscard]] std::vector<std::string> tenant_names() const;
  /// nullptr when unknown. Tenants are never removed, so the pointer
  /// stays valid for the service's lifetime.
  [[nodiscard]] Tenant* tenant(const std::string& name);

  // ---- request path (any thread) -----------------------------------

  Response recommend(const std::string& tenant, std::uint32_t player, std::size_t k);
  Response estimate(const std::string& tenant, std::uint32_t player);
  Response stats(const std::string& tenant);

  /// Parse-free JSONL entry point: dispatch one request, never throws —
  /// failures come back as ok=false responses.
  Response handle(const Request& req);

  // ---- refinement (serialized per tenant) --------------------------

  /// Run one epoch for `tenant` and return the version now serving
  /// (the previous one if the epoch degraded). Throws
  /// std::invalid_argument for an unknown tenant.
  std::shared_ptr<const CacheVersion> refine(const std::string& tenant);

  /// Start the background refiner: round-robin one epoch per tenant
  /// until stop_refiner() or — with max_epochs_per_tenant != 0 — every
  /// tenant has started that many epochs. Throws std::logic_error if
  /// already running.
  void start_refiner(std::uint64_t max_epochs_per_tenant);
  /// Signal and join the refiner (no-op when not running).
  void stop_refiner();
  [[nodiscard]] bool refiner_running() const { return refiner_.joinable(); }

  // ---- verification surface ----------------------------------------

  /// The content hash recorded when `epoch` was published for `tenant`
  /// (0 when that epoch never published). Tests and bench/e17 check
  /// every response's (epoch, hash) pair against this ledger — a torn
  /// or mixed-version read could not match.
  [[nodiscard]] std::uint64_t published_hash(const std::string& tenant,
                                             std::uint64_t epoch) const;

  /// Any tenant currently serving degraded (stale-marked) answers?
  [[nodiscard]] bool any_degraded() const;

  /// Oracle cost over every tenant: summed invocations and charged
  /// probes, and the largest max_invocations (the session's rounds).
  /// serve's --report and its `oracle.*` gauges both carry these. Call
  /// at a quiescent point; unlike tenant(), it charges no profile cost.
  struct OracleTotals {
    std::uint64_t invocations = 0;
    std::uint64_t charged = 0;
    std::uint64_t max_invocations = 0;
  };
  [[nodiscard]] OracleTotals oracle_totals() const;

  // ---- observability hooks (install before serving) ----------------

  /// Attach a telemetry exporter: every answered request is forwarded
  /// (tenant, op, latency, staleness, degraded), driving the exporter's
  /// count-based tick cadence. Non-owning; nullptr detaches. Install
  /// before requests start flowing — the pointer is read unsynchronized
  /// on the request path.
  void set_telemetry(obs::TelemetryExporter* telemetry) { telemetry_ = telemetry; }

  /// Attach an SLO watchdog: every cache-backed response feeds its
  /// rolling window. Evaluation happens on the telemetry tick (or
  /// explicitly); same install-before-serving contract as
  /// set_telemetry.
  void set_watchdog(obs::SloWatchdog* watchdog) { watchdog_ = watchdog; }

  /// Attach the cost-attribution profiler every entry point and the
  /// background refiner deposit into: the request zones
  /// serve.recommend/serve.estimate/serve.stats (interned here), one
  /// "tenant:<name>" zone around each epoch, and the service lock's
  /// acquisitions on the calling thread's zone (the profiler's root
  /// when that thread profiles elsewhere or not at all). Non-owning;
  /// nullptr detaches. Same install-before-serving contract as
  /// set_telemetry.
  void set_profiler(obs::Profiler* profiler);

 private:
  struct Entry {
    std::unique_ptr<Tenant> tenant;
    obs::MetricsRegistry::Counter requests;
    obs::MetricsRegistry::Histogram request_us;
    /// hashes[e] = content hash published for epoch e (mutated under
    /// the service mutex; 0 = never published).
    std::vector<std::uint64_t> hashes;
  };

  Entry* find(const std::string& name) TMWIA_EXCLUDES(mu_);
  void record_publish(Entry& entry, const CacheVersion& version) TMWIA_EXCLUDES(mu_);
  void observe(Entry& entry, const Response& r);
  std::shared_ptr<const CacheVersion> refine_entry(Entry& entry);
  Response add_tenant_request(const Request& req);
  void refiner_loop(std::uint64_t max_epochs);

  /// Guards the tenant table and every Entry::hashes ledger.
  mutable support::Mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> tenants_ TMWIA_GUARDED_BY(mu_);

  obs::MetricsRegistry::Counter requests_;
  obs::MetricsRegistry::Counter degraded_responses_;
  obs::MetricsRegistry::Histogram request_us_;
  obs::MetricsRegistry::Histogram staleness_;

  obs::TelemetryExporter* telemetry_ = nullptr;  ///< non-owning, see set_telemetry
  obs::SloWatchdog* watchdog_ = nullptr;         ///< non-owning, see set_watchdog
  obs::Profiler* profiler_ = nullptr;            ///< non-owning, see set_profiler
  /// profiler_'s request zones, pre-interned for the request hot path
  /// (the ZoneId ProfileZone constructor takes no lock).
  obs::Profiler::ZoneId zone_recommend_ = obs::Profiler::kRoot;
  obs::Profiler::ZoneId zone_estimate_ = obs::Profiler::kRoot;
  obs::Profiler::ZoneId zone_stats_ = obs::Profiler::kRoot;

  std::thread refiner_;
  std::atomic<bool> stop_refiner_{false};
};

}  // namespace tmwia::serve
