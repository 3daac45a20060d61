// serve::Tenant — one long-lived world inside the RecommendationService.
//
// A tenant owns a hidden preference matrix, the ProbeOracle/Billboard
// pair in front of it, an optional fault injector, a ProtocolAuditor
// (attached before the first probe, so every refinement epoch's traffic
// is audited against the paper's billboard model), an optional
// per-tenant flight-recorder sink, and the published AnswerCache the
// request path reads. Refinement epochs re-drive the algorithm tower —
// the unknown-D algorithm of Theorem 1.1, or the mimic heuristic under
// engine::Supervisor — against the *same* oracle, so probe history
// accumulates across epochs exactly like consecutive phases of one
// deployment (the tmwia::Session contract, made permanent).
//
// Thread roles: refine_epoch()/save_snapshot()/restore_snapshot()/
// audit() are serialized per tenant by refine_mu_, so one tenant's
// epochs run one at a time while different tenants may refine
// concurrently — each tenant's record sink is attached to its own
// oracle and board, so their logs never mix. cache()/epochs_started()/
// epochs_published()/degraded() are safe from any request thread.
//
// Degradation contract: an epoch that throws, or whose supervised run
// quarantines strategies or blows its phase deadline, publishes
// *nothing* — the cache keeps serving the last good version and the
// tenant turns its `degraded` marker on, which every response carries.
// A later healthy epoch clears the marker.
//
// Harness side of the serve-matrix-isolation rule: the tenant holds the
// hidden truth only to construct the ProbeOracle and the recorder's
// truth evaluator (tenant.cpp carries the audited allow-file pragma);
// every answer is computed from the cache, fed exclusively through probes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/core/checkpoint.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/serve/cache.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::serve {

struct TenantConfig {
  std::string name;
  /// Community fraction assumed by unknown-D refinement epochs.
  double alpha = 0.5;
  /// Master seed; epoch e draws from split(0x5E17, e)-style children.
  std::uint64_t seed = 1;
  /// Refinement algorithm: "unknown_d" (Theorem 1.1 tower + keep-better
  /// merge) or "mimic" (scheduler heuristic under engine::Supervisor).
  std::string algo = "unknown_d";
  /// Optional fault plan (faults::FaultPlan::parse grammar); empty = none.
  std::string fault_spec;
  /// Max recommendations precomputed per player per version.
  std::size_t toplist_cap = 16;
  /// Per-tenant flight-recorder sink (JSONL); empty = no recording.
  std::string record_path;
  /// Test hook: every refinement epoch throws, exercising the
  /// degraded-tenant (stale cache + marker) path deterministically.
  bool sabotage_refine = false;
};

class Tenant {
 public:
  /// Construct over a generated/loaded instance (the hidden truth moves
  /// in) and publish the empty epoch-0 cache version.
  Tenant(TenantConfig cfg, matrix::Instance inst);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] std::size_t players() const { return oracle_->players(); }
  [[nodiscard]] std::size_t objects() const { return oracle_->objects(); }

  // ---- request-path surface (any thread) ---------------------------

  [[nodiscard]] const AnswerCache& cache() const { return cache_; }
  [[nodiscard]] bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  /// Epochs the refiner has begun / successfully published. The gap
  /// between started and a served version's epoch is the cache
  /// staleness ("epochs-behind") the service reports per request.
  [[nodiscard]] std::uint64_t epochs_started() const {
    return epochs_started_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t epochs_published() const {
    return epochs_published_.load(std::memory_order_acquire);
  }

  // ---- refiner surface (serialized per tenant by refine_mu_) --------

  /// Run one refinement epoch and, if healthy, publish a new cache
  /// version. Returns the version now being served (the previous one
  /// when the epoch degraded).
  std::shared_ptr<const CacheVersion> refine_epoch();

  /// Install a callback invoked with each new version immediately
  /// *before* it becomes visible through cache() — the service uses it
  /// to enter (epoch, hash) into its publish ledger, so no reader can
  /// observe a version whose hash the ledger does not yet carry. Set
  /// once, before the tenant starts refining.
  void set_publish_hook(std::function<void(const CacheVersion&)> hook) {
    support::MutexLock lock(refine_mu_);
    publish_hook_ = std::move(hook);
  }

  /// Cumulative oracle cost, for stats responses and the session's
  /// `oracle.*` gauges.
  [[nodiscard]] std::uint64_t total_probes() const { return oracle_->total_invocations(); }
  [[nodiscard]] std::uint64_t total_charged() const { return oracle_->total_charged(); }
  [[nodiscard]] std::uint64_t rounds() const { return oracle_->max_invocations(); }

  /// Verify the auditor's cost ledger against the oracle (A4) and
  /// return the audit report accumulated over every epoch so far.
  [[nodiscard]] billboard::AuditReport audit();

  /// Freeze the tenant (oracle ledgers, billboard, estimates, fault
  /// cursors, epoch counters) into a RunCheckpoint container with
  /// algo="serve" at `path`, via the atomic tmp+fsync+rename path.
  void save_snapshot(const std::string& path);

  /// Restore a snapshot cut by save_snapshot into this freshly
  /// constructed tenant (same shape, no epochs run yet). Throws
  /// std::invalid_argument on an algo/shape mismatch and
  /// io::CheckpointError on a corrupt file or malformed estimate
  /// sections, before any state is touched.
  void restore_snapshot(const std::string& path);

 private:
  void publish_current_locked(std::uint64_t epoch, std::vector<bits::TriVector> candidates)
      TMWIA_REQUIRES(refine_mu_);
  void refine_unknown_d_locked(std::uint64_t epoch) TMWIA_REQUIRES(refine_mu_);
  void refine_mimic_locked(std::uint64_t epoch) TMWIA_REQUIRES(refine_mu_);

  TenantConfig cfg_;
  matrix::Instance inst_;  ///< the hidden truth (harness side only)
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<billboard::ProbeOracle> oracle_;
  std::unique_ptr<billboard::Billboard> board_;
  std::unique_ptr<billboard::ProtocolAuditor> auditor_;
  rng::Rng root_;

  /// Serializes refinement/snapshot/audit; the request path never takes
  /// it (reads go through cache_ only).
  support::Mutex refine_mu_;
  std::vector<bits::BitVector> estimates_ TMWIA_GUARDED_BY(refine_mu_);
  /// Oracle invocation baseline for audit(): nonzero after a snapshot
  /// restore, where the restored ledger predates the auditor.
  std::vector<std::uint64_t> audit_base_ TMWIA_GUARDED_BY(refine_mu_);
  std::function<void(const CacheVersion&)> publish_hook_ TMWIA_GUARDED_BY(refine_mu_);

  /// Attached to oracle_ and board_ at construction; null without
  /// cfg_.record_path.
  std::unique_ptr<obs::RecordSink> record_;

  AnswerCache cache_;
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> epochs_started_{0};
  std::atomic<std::uint64_t> epochs_published_{0};
};

}  // namespace tmwia::serve
