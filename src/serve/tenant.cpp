// tmwia-lint: allow-file(serve-matrix-isolation) harness side: see tenant.hpp.
#include "tmwia/serve/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tmwia/billboard/strategies.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/session.hpp"
#include "tmwia/engine/supervisor.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::serve {
namespace {

/// Every tenant refines with the practical profile over noiseless
/// probes; mimic epochs get a phase budget of 4 rounds per object and
/// quarantine a strategy at its third strike.
const core::Params kParams = core::Params::practical();
constexpr std::size_t kMimicRoundsPerObject = 4;
constexpr std::size_t kMaxStrikes = 3;

/// Rebuild a TriVector from its two checkpointed planes.
bits::TriVector trivector_from_planes(const bits::BitVector& value,
                                      const bits::BitVector& known) {
  bits::TriVector t(value.size());
  for (const auto i : known.one_positions()) {
    t.set(i, value.get(i) ? bits::Tri::kOne : bits::Tri::kZero);
  }
  return t;
}

}  // namespace

Tenant::Tenant(TenantConfig cfg, matrix::Instance inst)
    : cfg_(std::move(cfg)), inst_(std::move(inst)), root_(cfg_.seed) {
  core::require_alpha(cfg_.alpha, "Tenant");
  if (cfg_.algo != "unknown_d" && cfg_.algo != "mimic") {
    throw std::invalid_argument("Tenant: unknown refinement algo '" + cfg_.algo + "'");
  }
  const std::size_t n = inst_.matrix.players();
  const std::size_t m = inst_.matrix.objects();
  if (n == 0 || m == 0) throw std::invalid_argument("Tenant: empty instance");

  if (!cfg_.fault_spec.empty()) {
    injector_ = std::make_unique<faults::FaultInjector>(
        faults::FaultPlan::parse(cfg_.fault_spec), n);
  }
  oracle_ = std::make_unique<billboard::ProbeOracle>(inst_.matrix);
  if (injector_ != nullptr) oracle_->set_fault_injector(injector_.get());
  board_ = std::make_unique<billboard::Billboard>();
  // Attach before the first probe so the A4 cost ledgers line up.
  auditor_ = std::make_unique<billboard::ProtocolAuditor>(n, m);
  oracle_->set_auditor(auditor_.get());
  if (!cfg_.record_path.empty()) {
    // The tenant's log records its own oracle and board, every epoch.
    record_ = std::make_unique<obs::RecordSink>(cfg_.record_path);
    record_->recorder().set_output_evaluator(tmwia::make_truth_evaluator(inst_.matrix));
    oracle_->set_recorder(&record_->recorder());
    board_->set_recorder(&record_->recorder());
  }

  support::MutexLock lock(refine_mu_);
  estimates_.assign(n, bits::BitVector(m));
  audit_base_.assign(n, 0);
  // Epoch 0: the all-zero "know nothing" view, so the request path has
  // a version to serve before the first refinement completes.
  publish_current_locked(0, {});
}

std::shared_ptr<const CacheVersion> Tenant::refine_epoch() {
  support::MutexLock lock(refine_mu_);
  const std::uint64_t e = epochs_started_.fetch_add(1, std::memory_order_acq_rel) + 1;
  try {
    if (cfg_.sabotage_refine) {
      throw std::runtime_error("Tenant: refinement sabotaged (test hook)");
    }
    if (cfg_.algo == "mimic") {
      refine_mimic_locked(e);
    } else {
      refine_unknown_d_locked(e);
    }
  } catch (...) {
    // Publish nothing: the cache keeps serving the last good version,
    // marked degraded on every response until a healthy epoch lands.
    degraded_.store(true, std::memory_order_release);
  }
  return cache_.current();
}

void Tenant::refine_unknown_d_locked(std::uint64_t epoch) {
  auto run = core::find_preferences_unknown_d(*oracle_, board_.get(), cfg_.alpha,
                                              kParams, root_.split(0x5e17, epoch));
  if (epochs_published_.load(std::memory_order_acquire) == 0) {
    estimates_ = std::move(run.outputs);
  } else {
    core::keep_better_outputs(*oracle_, estimates_, run.outputs, epoch, kParams, root_);
  }

  // Cluster the refined estimates with the largest D any player
  // adopted — the tightest radius the tower certified this epoch.
  std::size_t d = 0;
  for (const auto c : run.chosen_d) d = std::max(d, c);
  const auto min_ball = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(cfg_.alpha * static_cast<double>(players()))));
  auto clusters = core::coalesce(estimates_, d, min_ball);

  publish_current_locked(epoch, std::move(clusters.candidates));
  degraded_.store(false, std::memory_order_release);
}

void Tenant::refine_mimic_locked(std::uint64_t epoch) {
  const std::size_t n = players();
  const std::size_t m = objects();
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  std::vector<billboard::MimicStrategy*> mimics;
  strategies.reserve(n);
  mimics.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    auto s = std::make_unique<billboard::MimicStrategy>(
        static_cast<billboard::PlayerId>(p), m, std::max<std::size_t>(m / 8, 4), 8,
        root_.split(0x31c, epoch, p), 16);
    mimics.push_back(s.get());
    strategies.push_back(std::move(s));
  }
  engine::Supervisor sup(*oracle_, {kMaxStrikes, 1, 64});
  const std::size_t budget = kMimicRoundsPerObject * m;
  const auto sres =
      sup.run(strategies, {engine::PhaseSpec{"epoch:" + std::to_string(epoch), budget}});
  if (sres.degraded()) {
    // Quarantined strategies / blown deadlines: this epoch's estimates
    // are not trustworthy enough to publish. Serve stale.
    degraded_.store(true, std::memory_order_release);
    return;
  }

  std::vector<bits::BitVector> challenger;
  challenger.reserve(n);
  for (const auto* mimic : mimics) challenger.push_back(mimic->estimate());
  if (epochs_published_.load(std::memory_order_acquire) == 0) {
    estimates_ = std::move(challenger);
  } else {
    core::keep_better_outputs(*oracle_, estimates_, challenger, epoch, kParams, root_);
  }

  // Mimic certifies no radius, so cluster at D = 0: candidates are the
  // exact-duplicate adoption groups of at least ceil(alpha * n) players.
  const auto min_ball = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(cfg_.alpha * static_cast<double>(n))));
  auto clusters = core::coalesce(estimates_, 0, min_ball);

  publish_current_locked(epoch, std::move(clusters.candidates));
  degraded_.store(false, std::memory_order_release);
}

void Tenant::publish_current_locked(std::uint64_t epoch,
                                    std::vector<bits::TriVector> candidates) {
  const std::size_t n = players();
  std::vector<bits::BitVector> probed;
  probed.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    probed.push_back(oracle_->probed_mask(static_cast<billboard::PlayerId>(p)));
  }
  auto version = build_cache_version(epoch, estimates_, probed, std::move(candidates),
                                     cfg_.toplist_cap);
  // Ledger before visibility: once cache_.publish runs, a request
  // thread may serve this version, so its hash must already be
  // recorded wherever responses will be checked against.
  if (publish_hook_) publish_hook_(*version);
  cache_.publish(std::move(version));
  epochs_published_.store(epoch, std::memory_order_release);
}

billboard::AuditReport Tenant::audit() {
  support::MutexLock lock(refine_mu_);
  auto expected = oracle_->snapshot();
  for (std::size_t p = 0; p < expected.size(); ++p) expected[p] -= audit_base_[p];
  auditor_->verify_invocations(expected);
  return auditor_->report();
}

void Tenant::save_snapshot(const std::string& path) {
  support::MutexLock lock(refine_mu_);
  const auto cur = cache_.current();

  core::RunCheckpoint ckpt;
  ckpt.algo = "serve";
  ckpt.alpha = cfg_.alpha;
  ckpt.players = players();
  ckpt.objects = objects();
  ckpt.seq = cur->epoch;
  ckpt.cum_rounds = oracle_->max_invocations();
  ckpt.recorder_clock = record_ != nullptr ? record_->recorder().clock() : 0;
  // versions[0] = estimates; versions[1]/[2] = the serving candidate
  // set's value/known planes, so restore republishes the identical
  // (epoch, content_hash) version.
  ckpt.versions.resize(3);
  ckpt.versions[0] = estimates_;
  for (const auto& c : cur->candidates) {
    ckpt.versions[1].push_back(c.value_plane());
    ckpt.versions[2].push_back(c.known_plane());
  }
  ckpt.rng_state = root_.state();
  ckpt.oracle = oracle_->export_ledger();
  ckpt.board = board_->export_posts();
  ckpt.has_injector = injector_ != nullptr;
  if (injector_ != nullptr) ckpt.injector = injector_->export_state();
  ckpt.harness = {{"algo", cfg_.algo},
                  {"epochs_started", std::to_string(epochs_started())},
                  {"name", cfg_.name},
                  {"seed", std::to_string(cfg_.seed)},
                  {"toplist_cap", std::to_string(cfg_.toplist_cap)}};
  core::save_run_checkpoint(path, ckpt);
}

void Tenant::restore_snapshot(const std::string& path) {
  support::MutexLock lock(refine_mu_);
  if (epochs_started_.load(std::memory_order_acquire) != 0) {
    throw std::logic_error("Tenant::restore_snapshot: tenant has already refined");
  }
  const auto ckpt = core::load_run_checkpoint(path);
  if (ckpt.algo != "serve") {
    throw std::invalid_argument("Tenant::restore_snapshot: checkpoint algo '" + ckpt.algo +
                                "' is not a serve snapshot");
  }
  if (ckpt.players != players() || ckpt.objects != objects()) {
    throw std::invalid_argument("Tenant::restore_snapshot: instance shape mismatch");
  }
  // decode_run_checkpoint already holds every row to objects() bits.
  if (ckpt.versions.size() != 3 || ckpt.versions[0].size() != players() ||
      ckpt.versions[1].size() != ckpt.versions[2].size()) {
    throw io::CheckpointError("Tenant::restore_snapshot: malformed estimate sections");
  }

  oracle_->restore_ledger(ckpt.oracle);
  board_->restore_posts(ckpt.board);
  if (ckpt.has_injector && injector_ != nullptr) injector_->restore_state(ckpt.injector);
  estimates_ = ckpt.versions[0];
  root_ = rng::Rng::from_state(ckpt.rng_state);
  if (record_ != nullptr) record_->recorder().resume_run(players(), ckpt.recorder_clock);
  // The restored ledger predates this tenant's auditor; rebase A4.
  audit_base_ = oracle_->snapshot();

  std::vector<bits::TriVector> candidates;
  candidates.reserve(ckpt.versions[1].size());
  for (std::size_t i = 0; i < ckpt.versions[1].size(); ++i) {
    candidates.push_back(trivector_from_planes(ckpt.versions[1][i], ckpt.versions[2][i]));
  }
  publish_current_locked(ckpt.seq, std::move(candidates));
  epochs_started_.store(ckpt.seq, std::memory_order_release);
}

}  // namespace tmwia::serve
