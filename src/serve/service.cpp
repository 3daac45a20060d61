#include "tmwia/serve/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "tmwia/io/serialize.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/latency.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::serve {

RecommendationService::RecommendationService() {
  auto& reg = obs::MetricsRegistry::global();
  requests_ = reg.counter("serve.requests");
  degraded_responses_ = reg.counter("serve.degraded_responses");
  request_us_ = reg.histogram("serve.request_us", obs::MetricsRegistry::pow2_bounds(20));
  staleness_ = reg.histogram("serve.staleness_epochs", obs::MetricsRegistry::pow2_bounds(8));
}

RecommendationService::~RecommendationService() { stop_refiner(); }

void RecommendationService::set_profiler(obs::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler == nullptr) return;
  zone_recommend_ = profiler->intern(obs::Profiler::kRoot, "serve.recommend");
  zone_estimate_ = profiler->intern(obs::Profiler::kRoot, "serve.estimate");
  zone_stats_ = profiler->intern(obs::Profiler::kRoot, "serve.stats");
}

Tenant& RecommendationService::add_tenant(TenantConfig cfg, matrix::Instance inst) {
  const std::string name = cfg.name;
  if (name.empty()) throw std::invalid_argument("serve: tenant name must be non-empty");
  {
    support::MutexLock lock(mu_);
    if (tenants_.find(name) != tenants_.end()) {
      throw std::invalid_argument("serve: duplicate tenant '" + name + "'");
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->tenant = std::make_unique<Tenant>(std::move(cfg), std::move(inst));
  auto& reg = obs::MetricsRegistry::global();
  // tmwia-lint: allow(metric-name-registry) per-tenant series: "serve.<tenant>.*"
  entry->requests = reg.counter("serve." + name + ".requests");
  entry->request_us =
      // tmwia-lint: allow(metric-name-registry) per-tenant series: "serve.<tenant>.*"
      reg.histogram("serve." + name + ".request_us", obs::MetricsRegistry::pow2_bounds(20));
  // The constructor's epoch-0 publish predates the hook; record it by
  // hand — the tenant is not in the map yet, so no reader saw it.
  record_publish(*entry, *entry->tenant->cache().current());
  // Every later publish (refine, snapshot restore) enters the ledger
  // through this hook *before* the version becomes reader-visible;
  // recording after the fact would leave a window where a response
  // carries an epoch whose published_hash() is still 0.
  Entry* raw = entry.get();
  raw->tenant->set_publish_hook(
      [this, raw](const CacheVersion& v) { record_publish(*raw, v); });

  support::MutexLock lock(mu_);
  auto [it, inserted] = tenants_.emplace(name, std::move(entry));
  if (!inserted) throw std::invalid_argument("serve: duplicate tenant '" + name + "'");
  return *it->second->tenant;
}

std::vector<std::string> RecommendationService::tenant_names() const {
  support::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, entry] : tenants_) names.push_back(name);
  return names;
}

Tenant* RecommendationService::tenant(const std::string& name) {
  Entry* e = find(name);
  return e != nullptr ? e->tenant.get() : nullptr;
}

RecommendationService::Entry* RecommendationService::find(const std::string& name) {
  const obs::ProfileScope scope(profiler_);
  obs::profile_cost(obs::Cost::kLocks, 1);
  support::MutexLock lock(mu_);
  const auto it = tenants_.find(name);
  return it != tenants_.end() ? it->second.get() : nullptr;
}

void RecommendationService::record_publish(Entry& entry, const CacheVersion& version) {
  const obs::ProfileScope scope(profiler_);
  obs::profile_cost(obs::Cost::kLocks, 1);
  support::MutexLock lock(mu_);
  if (entry.hashes.size() <= version.epoch) entry.hashes.resize(version.epoch + 1, 0);
  entry.hashes[version.epoch] = version.content_hash;
}

std::uint64_t RecommendationService::published_hash(const std::string& tenant,
                                                    std::uint64_t epoch) const {
  support::MutexLock lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  const auto& hashes = it->second->hashes;
  return epoch < hashes.size() ? hashes[epoch] : 0;
}

bool RecommendationService::any_degraded() const {
  support::MutexLock lock(mu_);
  for (const auto& [name, entry] : tenants_) {
    if (entry->tenant->degraded()) return true;
  }
  return false;
}

RecommendationService::OracleTotals RecommendationService::oracle_totals() const {
  support::MutexLock lock(mu_);
  OracleTotals totals;
  for (const auto& [name, entry] : tenants_) {
    totals.invocations += entry->tenant->total_probes();
    totals.charged += entry->tenant->total_charged();
    totals.max_invocations = std::max(totals.max_invocations, entry->tenant->rounds());
  }
  return totals;
}

void RecommendationService::observe(Entry& entry, const Response& r) {
  requests_.inc();
  entry.requests.inc();
  request_us_.observe(r.latency_us);
  entry.request_us.observe(r.latency_us);
  if (r.has_view) {
    staleness_.observe(r.staleness);
    if (r.degraded) degraded_responses_.inc();
    if (watchdog_ != nullptr) watchdog_->observe_request(r.latency_us, r.staleness, r.degraded);
  }
  if (telemetry_ != nullptr) {
    telemetry_->observe_request(r.tenant, r.op, r.latency_us, r.staleness, r.degraded);
  }
}

Response RecommendationService::recommend(const std::string& tenant, std::uint32_t player,
                                          std::size_t k) {
  obs::ProfileZone zone(zone_recommend_, profiler_);
  obs::WallTimer timer;
  Response r;
  r.op = "recommend";
  r.tenant = tenant;
  Entry* e = find(tenant);
  if (e == nullptr) {
    r.ok = false;
    r.error = "unknown tenant";
    r.latency_us = timer.elapsed_us();
    return r;
  }
  // One acquire load; the whole answer comes from this one immutable
  // version — a torn or mixed-epoch read is impossible by construction.
  const auto v = e->tenant->cache().current();
  if (player >= v->toplists.size()) {
    r.ok = false;
    r.error = "player out of range";
  } else {
    r.has_view = true;
    r.epoch = v->epoch;
    r.cache_hash = v->content_hash;
    r.degraded = e->tenant->degraded();
    const auto started = e->tenant->epochs_started();
    r.staleness = started > v->epoch ? started - v->epoch : 0;
    r.has_items = true;
    const auto& top = v->toplists[player];
    r.items.assign(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(k, top.size())));
  }
  r.latency_us = timer.elapsed_us();
  observe(*e, r);
  return r;
}

Response RecommendationService::estimate(const std::string& tenant, std::uint32_t player) {
  obs::ProfileZone zone(zone_estimate_, profiler_);
  obs::WallTimer timer;
  Response r;
  r.op = "estimate";
  r.tenant = tenant;
  Entry* e = find(tenant);
  if (e == nullptr) {
    r.ok = false;
    r.error = "unknown tenant";
    r.latency_us = timer.elapsed_us();
    return r;
  }
  const auto v = e->tenant->cache().current();
  if (player >= v->estimates.size()) {
    r.ok = false;
    r.error = "player out of range";
  } else {
    r.has_view = true;
    r.epoch = v->epoch;
    r.cache_hash = v->content_hash;
    r.degraded = e->tenant->degraded();
    const auto started = e->tenant->epochs_started();
    r.staleness = started > v->epoch ? started - v->epoch : 0;
    r.has_estimate = true;
    const auto& est = v->estimates[player];
    r.estimate.reserve(est.size());
    for (std::size_t o = 0; o < est.size(); ++o) r.estimate.push_back(est.get(o) ? '1' : '0');
  }
  r.latency_us = timer.elapsed_us();
  observe(*e, r);
  return r;
}

Response RecommendationService::stats(const std::string& tenant) {
  obs::ProfileZone zone(zone_stats_, profiler_);
  obs::WallTimer timer;
  Response r;
  r.op = "stats";
  r.tenant = tenant;
  Entry* e = find(tenant);
  if (e == nullptr) {
    r.ok = false;
    r.error = "unknown tenant";
    r.latency_us = timer.elapsed_us();
    return r;
  }
  const auto& t = *e->tenant;
  r.stats = {{"players", t.players()},
             {"objects", t.objects()},
             {"epochs_started", t.epochs_started()},
             {"epochs_published", t.epochs_published()},
             {"total_probes", t.total_probes()},
             {"rounds", t.rounds()},
             {"degraded", t.degraded() ? 1u : 0u}};
  r.latency_us = timer.elapsed_us();
  observe(*e, r);
  return r;
}

std::shared_ptr<const CacheVersion> RecommendationService::refine(const std::string& tenant) {
  Entry* e = find(tenant);
  if (e == nullptr) throw std::invalid_argument("serve: unknown tenant '" + tenant + "'");
  return refine_entry(*e);
}

std::shared_ptr<const CacheVersion> RecommendationService::refine_entry(Entry& entry) {
  // tmwia-lint: allow(metric-name-registry) per-tenant zone: "tenant:<name>"
  obs::ProfileZone zone("tenant:" + entry.tenant->name(), profiler_);
  obs::profile_cost(obs::Cost::kLocks, 1);  // the epoch takes the tenant's lock
  // The publish hook installed at add_tenant records (epoch, hash)
  // before the version is visible; nothing to record here.
  return entry.tenant->refine_epoch();
}

Response RecommendationService::add_tenant_request(const Request& req) {
  TenantConfig cfg;
  cfg.name = req.tenant;
  cfg.alpha = req.alpha;
  cfg.seed = req.seed;
  cfg.algo = req.algo;
  cfg.fault_spec = req.faults;
  cfg.record_path = req.record;
  cfg.toplist_cap = req.toplist_cap;
  cfg.sabotage_refine = req.sabotage;

  matrix::Instance inst;
  if (!req.in.empty()) {
    inst = io::load_instance_file(req.in);
  } else {
    if (req.n > kMaxTenantPlayers) {
      throw std::invalid_argument("serve: add_tenant field 'n' is above the maximum of " +
                                  std::to_string(kMaxTenantPlayers) + " players");
    }
    if (req.n != 0 && req.m > kMaxTenantCells / req.n) {
      throw std::invalid_argument("serve: add_tenant fields 'n' and 'm' ask for more than " +
                                  std::to_string(kMaxTenantCells) + " matrix cells");
    }
    rng::Rng gen = rng::Rng(req.seed).split(0x6e57, 0);
    if (req.kind == "planted") {
      inst = matrix::planted_community(req.n, req.m, {req.alpha, req.radius}, gen);
    } else if (req.kind == "uniform") {
      inst = matrix::uniform_random(req.n, req.m, gen);
    } else {
      throw std::invalid_argument("serve: unknown instance kind '" + req.kind + "'");
    }
  }

  Tenant& t = add_tenant(std::move(cfg), std::move(inst));
  const auto v = t.cache().current();
  Response r;
  r.op = req.op;
  r.tenant = req.tenant;
  r.has_view = true;
  r.epoch = v->epoch;
  r.cache_hash = v->content_hash;
  r.stats = {{"players", t.players()}, {"objects", t.objects()}};
  return r;
}

Response RecommendationService::handle(const Request& req) {
  obs::WallTimer timer;
  try {
    if (req.op == "recommend") return recommend(req.tenant, req.player, req.k);
    if (req.op == "estimate") return estimate(req.tenant, req.player);
    if (req.op == "stats") return stats(req.tenant);
    if (req.op == "add_tenant") {
      auto r = add_tenant_request(req);
      r.latency_us = timer.elapsed_us();
      return r;
    }
    if (req.op == "refine") {
      Response r;
      r.op = req.op;
      r.tenant = req.tenant;
      std::shared_ptr<const CacheVersion> v;
      for (std::uint64_t i = 0; i < req.epochs; ++i) v = refine(req.tenant);
      Entry* e = find(req.tenant);
      r.has_view = true;
      r.epoch = v->epoch;
      r.cache_hash = v->content_hash;
      r.degraded = e->tenant->degraded();
      const auto started = e->tenant->epochs_started();
      r.staleness = started > v->epoch ? started - v->epoch : 0;
      r.latency_us = timer.elapsed_us();
      return r;
    }
    if (req.op == "snapshot" || req.op == "restore") {
      Response r;
      r.op = req.op;
      r.tenant = req.tenant;
      r.path = req.path;
      Entry* e = find(req.tenant);
      if (e == nullptr) throw std::invalid_argument("serve: unknown tenant '" + req.tenant + "'");
      if (req.op == "snapshot") {
        e->tenant->save_snapshot(req.path);
      } else {
        e->tenant->restore_snapshot(req.path);
        const auto v = e->tenant->cache().current();
        r.has_view = true;
        r.epoch = v->epoch;
        r.cache_hash = v->content_hash;
      }
      r.latency_us = timer.elapsed_us();
      return r;
    }
    throw std::invalid_argument("serve: unknown op '" + req.op + "'");
  } catch (const std::exception& ex) {
    Response r;
    r.op = req.op;
    r.tenant = req.tenant;
    r.ok = false;
    r.error = ex.what();
    r.latency_us = timer.elapsed_us();
    return r;
  }
}

void RecommendationService::start_refiner(std::uint64_t max_epochs_per_tenant) {
  if (refiner_.joinable()) {
    throw std::logic_error("serve: background refiner is already running");
  }
  stop_refiner_.store(false, std::memory_order_release);
  // A dedicated thread, never a pool task: refinement epochs drive
  // engine::parallel_for, whose loops would run inline on one worker
  // if issued from inside a pool task.
  refiner_ = std::thread([this, max_epochs_per_tenant] { refiner_loop(max_epochs_per_tenant); });
}

void RecommendationService::stop_refiner() {
  stop_refiner_.store(true, std::memory_order_release);
  if (refiner_.joinable()) refiner_.join();
}

void RecommendationService::refiner_loop(std::uint64_t max_epochs) {
  while (!stop_refiner_.load(std::memory_order_acquire)) {
    bool progressed = false;
    for (const auto& name : tenant_names()) {
      if (stop_refiner_.load(std::memory_order_acquire)) return;
      Entry* e = find(name);
      if (e == nullptr) continue;
      if (max_epochs != 0 && e->tenant->epochs_started() >= max_epochs) continue;
      refine_entry(*e);
      progressed = true;
    }
    if (!progressed) return;  // every tenant reached its epoch cap
  }
}

}  // namespace tmwia::serve
