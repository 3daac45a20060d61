// serve:: — the long-lived recommendation service.
//
// Contract coverage:
//   * request codec: parse/render, unknown op/field rejection, defaults;
//   * cache versions: toplist ranking, content-hash sensitivity;
//   * multi-tenant isolation: a tenant refined inside a two-tenant
//     service (concurrent readers + interleaved epochs, or two threads
//     refining the two tenants at once) produces byte-identical
//     estimates AND a byte-identical flight log to the same tenant
//     refined solo — no cross-tenant leakage of any kind;
//   * versioned consistency: every response's (epoch, cache_hash) pair
//     matches the publish ledger even while the background refiner is
//     swapping versions (this test is the TSan target for the serve
//     layer);
//   * degradation: a sabotaged epoch publishes nothing, keeps serving
//     the stale version, and marks every response degraded;
//   * observability hooks: degraded responses flow through the
//     service's observe hook into an attached SloWatchdog (the exit-6
//     contract's trigger) and every request into a TelemetryExporter;
//   * snapshot/restore: the restored tenant serves the byte-identical
//     (epoch, hash) version and its post-restore audit stays clean; a
//     malformed snapshot fails typed and leaves the tenant untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tmwia/core/checkpoint.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/obs/telemetry.hpp"
#include "tmwia/rng/rng.hpp"
#include "tmwia/serve/cache.hpp"
#include "tmwia/serve/protocol.hpp"
#include "tmwia/serve/service.hpp"
#include "tmwia/serve/tenant.hpp"

namespace {

using namespace tmwia;

matrix::Instance make_instance(std::uint64_t seed, std::size_t n = 16, std::size_t m = 32) {
  rng::Rng gen = rng::Rng(seed).split(0x6e57, 0);
  return matrix::planted_community(n, m, {0.5, 0}, gen);
}

serve::TenantConfig make_config(const std::string& name, std::uint64_t seed) {
  serve::TenantConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string temp_path(const std::string& tag) {
  return testing::TempDir() + "serve_" + tag + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".tmp";
}

// ---- protocol codec --------------------------------------------------

TEST(ServeProtocol, ParsesRecommendWithDefaults) {
  const auto req = serve::parse_request(R"({"op":"recommend","tenant":"a","player":3})");
  EXPECT_EQ(req.op, "recommend");
  EXPECT_EQ(req.tenant, "a");
  EXPECT_EQ(req.player, 3u);
  EXPECT_EQ(req.k, 8u);  // default
}

TEST(ServeProtocol, ParsesAddTenantFields) {
  const auto req = serve::parse_request(
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"kind":"uniform","seed":9,)"
      R"("alpha":0.25,"algo":"mimic","toplist_cap":4,"sabotage":true})");
  EXPECT_EQ(req.n, 8u);
  EXPECT_EQ(req.m, 16u);
  EXPECT_EQ(req.kind, "uniform");
  EXPECT_EQ(req.seed, 9u);
  EXPECT_DOUBLE_EQ(req.alpha, 0.25);
  EXPECT_EQ(req.algo, "mimic");
  EXPECT_EQ(req.toplist_cap, 4u);
  EXPECT_TRUE(req.sabotage);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  // Unknown op.
  EXPECT_THROW(serve::parse_request(R"({"op":"frobnicate","tenant":"a"})"),
               std::invalid_argument);
  // Unknown field for the op.
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","tenant":"a","player":1,"nope":2})"),
               std::invalid_argument);
  // Missing required fields.
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","tenant":"a"})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","player":1})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"add_tenant","tenant":"a"})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"snapshot","tenant":"a"})"),
               std::invalid_argument);
  // Not JSON at all.
  EXPECT_THROW(serve::parse_request("recommend a 3"), std::invalid_argument);
  // Integers that would wrap instead of failing: a sign on an unsigned
  // field, a player id past 32 bits, and a value past 64 bits.
  EXPECT_THROW(serve::parse_request(R"({"op":"refine","tenant":"t","epochs":-1})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"estimate","tenant":"t","player":4294967296})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"estimate","tenant":"t","player":-4294967296})"),
               std::invalid_argument);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"estimate","tenant":"t","player":99999999999999999999999})"),
      std::invalid_argument);
}

TEST(ServeProtocol, ResponseJsonCarriesViewAndItems) {
  serve::Response r;
  r.op = "recommend";
  r.tenant = "a";
  r.has_view = true;
  r.epoch = 2;
  r.cache_hash = 0xabcdef;
  r.staleness = 1;
  r.has_items = true;
  r.items = {5, 1, 9};
  r.latency_us = 12;
  const std::string js = r.to_json();
  EXPECT_NE(js.find("\"op\":\"recommend\""), std::string::npos);
  EXPECT_NE(js.find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(js.find(serve::hash_to_hex(0xabcdef)), std::string::npos);
  EXPECT_NE(js.find("\"items\":[5,1,9]"), std::string::npos);
  EXPECT_NE(js.find("\"staleness\":1"), std::string::npos);
}

// ---- cache versions --------------------------------------------------

TEST(ServeCache, ToplistRanksUnprobedLikedBySupport) {
  // One player over 8 objects: likes {1,2,5,6}, already probed {2}.
  std::vector<bits::BitVector> est(1, bits::BitVector(8));
  for (auto o : {1u, 2u, 5u, 6u}) est[0].set(o, true);
  std::vector<bits::BitVector> probed(1, bits::BitVector(8));
  probed[0].set(2, true);
  // Two candidates both carry a known 1 at object 5, one at object 1.
  std::vector<bits::TriVector> cands;
  for (int c = 0; c < 2; ++c) {
    bits::TriVector t(8);
    t.set(5, bits::Tri::kOne);
    if (c == 0) t.set(1, bits::Tri::kOne);
    cands.push_back(t);
  }
  const auto v = serve::build_cache_version(1, est, probed, cands, 16);
  // 5 (support 2) before 1 (support 1) before 6 (support 0); 2 excluded.
  EXPECT_EQ(v->toplists[0], (std::vector<std::uint32_t>{5, 1, 6}));

  // Everything probed -> fall back to all predicted-liked.
  probed[0] = est[0];
  const auto v2 = serve::build_cache_version(1, est, probed, cands, 16);
  EXPECT_EQ(v2->toplists[0], (std::vector<std::uint32_t>{5, 1, 2, 6}));

  // The cap truncates.
  const auto v3 = serve::build_cache_version(1, est, std::vector<bits::BitVector>(), cands, 2);
  EXPECT_EQ(v3->toplists[0].size(), 2u);
}

TEST(ServeCache, ContentHashIsEpochAndPayloadSensitive) {
  std::vector<bits::BitVector> est(2, bits::BitVector(16));
  est[0].set(3, true);
  const auto a = serve::build_cache_version(1, est, {}, {}, 4);
  const auto b = serve::build_cache_version(1, est, {}, {}, 4);
  EXPECT_EQ(a->content_hash, b->content_hash);  // deterministic
  const auto c = serve::build_cache_version(2, est, {}, {}, 4);
  EXPECT_NE(a->content_hash, c->content_hash);  // epoch mixed in
  est[1].set(7, true);
  const auto d = serve::build_cache_version(1, est, {}, {}, 4);
  EXPECT_NE(a->content_hash, d->content_hash);  // payload mixed in
}

// ---- tenant refinement ----------------------------------------------

TEST(ServeTenant, RefineEpochsPublishAndAuditClean) {
  serve::Tenant t(make_config("solo", 11), make_instance(11));
  EXPECT_EQ(t.epochs_published(), 0u);
  EXPECT_EQ(t.cache().current()->epoch, 0u);

  const auto v1 = t.refine_epoch();
  EXPECT_EQ(v1->epoch, 1u);
  EXPECT_EQ(t.epochs_published(), 1u);
  EXPECT_FALSE(t.degraded());

  const auto v2 = t.refine_epoch();
  EXPECT_EQ(v2->epoch, 2u);
  EXPECT_NE(v1->content_hash, v2->content_hash);
  EXPECT_GT(t.total_probes(), 0u);
  EXPECT_TRUE(t.audit().clean());
}

TEST(ServeTenant, MimicEpochsPublishUnderSupervisor) {
  auto cfg = make_config("mimic", 5);
  cfg.algo = "mimic";
  serve::Tenant t(cfg, make_instance(5));
  const auto v = t.refine_epoch();
  EXPECT_EQ(v->epoch, 1u);
  EXPECT_FALSE(t.degraded());
  EXPECT_TRUE(t.audit().clean());
}

TEST(ServeTenant, SabotagedEpochServesStaleAndMarksDegraded) {
  auto cfg = make_config("sab", 3);
  cfg.sabotage_refine = true;
  serve::Tenant t(cfg, make_instance(3));
  const auto v0 = t.cache().current();

  const auto v = t.refine_epoch();
  EXPECT_TRUE(t.degraded());
  EXPECT_EQ(t.epochs_started(), 1u);
  EXPECT_EQ(t.epochs_published(), 0u);
  // The cache still serves the epoch-0 version, byte-identical.
  EXPECT_EQ(v->epoch, 0u);
  EXPECT_EQ(v->content_hash, v0->content_hash);
}

// ---- multi-tenant isolation -----------------------------------------

TEST(ServeIsolation, ServiceTenantsMatchSoloRunsByteForByte) {
  constexpr std::uint64_t kSeedA = 21, kSeedB = 22;
  const std::string log_a = temp_path("iso_a"), log_b = temp_path("iso_b");
  const std::string log_sa = temp_path("iso_sa"), log_sb = temp_path("iso_sb");

  // Two tenants with different hidden matrices share one service; the
  // refiner interleaves their epochs while reader threads hammer both.
  std::vector<bits::BitVector> est_a, est_b;
  {
    obs::MetricsRegistry::global().set_enabled(true);
    serve::RecommendationService service;
    auto cfg_a = make_config("a", kSeedA);
    cfg_a.record_path = log_a;
    auto cfg_b = make_config("b", kSeedB);
    cfg_b.record_path = log_b;
    service.add_tenant(std::move(cfg_a), make_instance(kSeedA));
    service.add_tenant(std::move(cfg_b), make_instance(kSeedB));

    service.start_refiner(2);
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&service, r] {
        const std::string tenant = r == 0 ? "a" : "b";
        for (std::uint32_t i = 0; i < 500; ++i) {
          const auto resp = service.recommend(tenant, i % 16, 4);
          ASSERT_TRUE(resp.ok);
          ASSERT_EQ(service.published_hash(tenant, resp.epoch), resp.cache_hash);
        }
      });
    }
    for (auto& th : readers) th.join();
    service.stop_refiner();
    while (service.tenant("a")->epochs_published() < 2) service.refine("a");
    while (service.tenant("b")->epochs_published() < 2) service.refine("b");

    est_a = service.tenant("a")->cache().current()->estimates;
    est_b = service.tenant("b")->cache().current()->estimates;
    EXPECT_TRUE(service.tenant("a")->audit().clean());
    EXPECT_TRUE(service.tenant("b")->audit().clean());
  }

  // Solo reference runs: same config, same seeds, no sibling tenant.
  auto solo = [&](std::uint64_t seed, const std::string& log) {
    auto cfg = make_config("solo", seed);
    cfg.record_path = log;
    serve::Tenant t(cfg, make_instance(seed));
    t.refine_epoch();
    t.refine_epoch();
    return t.cache().current()->estimates;
  };
  const auto solo_a = solo(kSeedA, log_sa);
  const auto solo_b = solo(kSeedB, log_sb);

  // No cross-tenant leakage: estimates byte-identical to the solo runs.
  EXPECT_EQ(est_a, solo_a);
  EXPECT_EQ(est_b, solo_b);
  // Different matrices must not collapse to the same answers.
  EXPECT_NE(est_a, est_b);

  // Per-tenant flight logs byte-identical to the solo logs (tenants'
  // recorders flushed on destruction above).
  const auto shared_log_a = slurp(log_a), shared_log_b = slurp(log_b);
  EXPECT_FALSE(shared_log_a.empty());
  EXPECT_EQ(shared_log_a, slurp(log_sa));
  EXPECT_EQ(shared_log_b, slurp(log_sb));

  for (const auto& p : {log_a, log_b, log_sa, log_sb}) std::remove(p.c_str());
}

/// Two threads refine two different tenants at the same time, twice
/// each: epochs serialize per tenant only, and each tenant's estimates
/// and flight log still equal its solo run.
TEST(ServeIsolation, ConcurrentRefinesOfTwoTenantsMatchSoloRuns) {
  constexpr std::uint64_t kSeedA = 23, kSeedB = 24;
  const std::string log_a = temp_path("conc_a"), log_b = temp_path("conc_b");
  const std::string log_sa = temp_path("conc_sa"), log_sb = temp_path("conc_sb");

  std::vector<bits::BitVector> est_a, est_b;
  {
    serve::RecommendationService service;
    auto cfg_a = make_config("a", kSeedA);
    cfg_a.record_path = log_a;
    auto cfg_b = make_config("b", kSeedB);
    cfg_b.record_path = log_b;
    service.add_tenant(std::move(cfg_a), make_instance(kSeedA));
    service.add_tenant(std::move(cfg_b), make_instance(kSeedB));

    std::vector<std::thread> refiners;
    for (const std::string tenant : {"a", "b"}) {
      refiners.emplace_back([&service, tenant] {
        service.refine(tenant);
        service.refine(tenant);
      });
    }
    for (auto& th : refiners) th.join();

    est_a = service.tenant("a")->cache().current()->estimates;
    est_b = service.tenant("b")->cache().current()->estimates;
    EXPECT_EQ(service.tenant("a")->epochs_published(), 2u);
    EXPECT_EQ(service.tenant("b")->epochs_published(), 2u);
    EXPECT_TRUE(service.tenant("a")->audit().clean());
    EXPECT_TRUE(service.tenant("b")->audit().clean());
  }

  auto solo = [&](std::uint64_t seed, const std::string& log) {
    auto cfg = make_config("solo", seed);
    cfg.record_path = log;
    serve::Tenant t(cfg, make_instance(seed));
    t.refine_epoch();
    t.refine_epoch();
    return t.cache().current()->estimates;
  };
  EXPECT_EQ(est_a, solo(kSeedA, log_sa));
  EXPECT_EQ(est_b, solo(kSeedB, log_sb));

  const auto shared_log_a = slurp(log_a);
  EXPECT_FALSE(shared_log_a.empty());
  EXPECT_EQ(shared_log_a, slurp(log_sa));
  EXPECT_EQ(slurp(log_b), slurp(log_sb));

  for (const auto& p : {log_a, log_b, log_sa, log_sb}) std::remove(p.c_str());
}

// ---- versioned consistency under concurrent refinement ---------------

TEST(ServeConsistency, ResponsesNeverTearAcrossVersionSwaps) {
  serve::RecommendationService service;
  service.add_tenant(make_config("t", 31), make_instance(31));

  service.start_refiner(4);
  std::uint64_t views = 0;
  std::uint64_t distinct_epochs = 0;
  std::uint64_t last_epoch = ~0ull;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const auto r = (i % 4 == 3) ? service.estimate("t", i % 16)
                                : service.recommend("t", i % 16, 4);
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(r.has_view);
    // The (epoch, hash) pair must match what was published for that
    // epoch — a torn read mixing two versions could not.
    ASSERT_EQ(service.published_hash("t", r.epoch), r.cache_hash);
    ASSERT_NE(r.cache_hash, 0u);
    ++views;
    if (r.epoch != last_epoch) {
      ++distinct_epochs;
      last_epoch = r.epoch;
    }
  }
  service.stop_refiner();
  EXPECT_EQ(views, 4000u);
  EXPECT_GE(distinct_epochs, 1u);
  EXPECT_TRUE(service.tenant("t")->audit().clean());
}

// ---- service request path -------------------------------------------

TEST(ServeService, HandlesErrorsWithoutThrowing) {
  serve::RecommendationService service;
  // Unknown tenant.
  auto r = service.recommend("ghost", 0, 4);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown tenant");
  // Unknown op through handle().
  serve::Request req;
  req.op = "frobnicate";
  req.tenant = "ghost";
  r = service.handle(req);
  EXPECT_FALSE(r.ok);

  // Player out of range on a real tenant.
  service.add_tenant(make_config("t", 41), make_instance(41));
  r = service.recommend("t", 999, 4);
  EXPECT_FALSE(r.ok);

  // Duplicate tenant registration throws.
  EXPECT_THROW(service.add_tenant(make_config("t", 41), make_instance(41)),
               std::invalid_argument);
}

/// A tenant's alpha is checked once, at construction: add_tenant answers
/// ok:false instead of registering a tenant whose every refine degrades.
TEST(ServeService, AddTenantRejectsAlphaOutsideUnitInterval) {
  serve::RecommendationService service;
  for (const std::string alpha : {"0", "-0.25", "1.5"}) {
    const auto r = service.handle(serve::parse_request(
        R"({"op":"add_tenant","tenant":"z","kind":"uniform","n":8,"m":8,"alpha":)" + alpha +
        "}"));
    EXPECT_FALSE(r.ok) << alpha;
    EXPECT_NE(r.error.find("alpha must be in (0, 1]"), std::string::npos) << r.error;
  }
  EXPECT_TRUE(service.tenant_names().empty());
  auto cfg = make_config("nan", 41);
  cfg.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(serve::Tenant(cfg, make_instance(41)), std::invalid_argument);
}

/// add_tenant checks the generated shape before allocating: an "n"
/// above kMaxTenantPlayers (2^32, beyond every player id, included), or
/// an n·m above kMaxTenantCells, answers ok:false naming the fields.
/// None of these allocates the gigabytes it asks for.
TEST(ServeService, AddTenantRejectsShapesAboveTheCaps) {
  serve::RecommendationService service;
  const auto add = [&](std::uint64_t n, std::uint64_t m) {
    return service.handle(serve::parse_request(
        R"({"op":"add_tenant","tenant":"big","kind":"uniform","n":)" + std::to_string(n) +
        R"(,"m":)" + std::to_string(m) + "}"));
  };
  for (const std::uint64_t n : {serve::kMaxTenantPlayers + 1, std::uint64_t{1} << 32,
                                std::numeric_limits<std::uint64_t>::max()}) {
    const auto r = add(n, 1);
    EXPECT_FALSE(r.ok) << n;
    EXPECT_NE(r.error.find("field 'n' is above the maximum of 4194304 players"),
              std::string::npos)
        << r.error;
  }
  for (const auto& [n, m] : {std::pair<std::uint64_t, std::uint64_t>{1u << 16, (1u << 16) + 1},
                             {1u << 18, 1u << 18},
                             {1, std::numeric_limits<std::uint64_t>::max()},
                             {serve::kMaxTenantPlayers, 1u << 11}}) {
    const auto r = add(n, m);
    EXPECT_FALSE(r.ok) << n << "x" << m;
    EXPECT_NE(r.error.find("fields 'n' and 'm' ask for more than 4294967296 matrix cells"),
              std::string::npos)
        << r.error;
  }
  EXPECT_TRUE(service.tenant_names().empty());
  // A shape under the caps is still generated.
  EXPECT_TRUE(add(16, 32).ok);
}

TEST(ServeService, DegradedTenantMarksResponsesAndServiceFlag) {
  serve::RecommendationService service;
  auto cfg = make_config("sab", 51);
  cfg.sabotage_refine = true;
  service.add_tenant(std::move(cfg), make_instance(51));
  EXPECT_FALSE(service.any_degraded());

  service.refine("sab");
  EXPECT_TRUE(service.any_degraded());
  const auto r = service.recommend("sab", 0, 4);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.epoch, 0u);       // still the stale epoch-0 version
  EXPECT_EQ(r.staleness, 1u);   // one epoch behind
}

// ---- SLO watchdog + telemetry hooks ----------------------------------

/// The serve exit-code 6 contract, at the library layer: a sabotaged
/// tenant's degraded responses flow through the service's observe hook
/// into the watchdog, which raises a structured "degraded" alert and
/// latches breached().
TEST(ServeSlo, SabotagedTenantTripsWatchdog) {
  serve::RecommendationService service;
  service.add_tenant(make_config("good", 41), make_instance(41));
  auto cfg = make_config("sab", 51);
  cfg.sabotage_refine = true;
  service.add_tenant(std::move(cfg), make_instance(51));

  obs::SloWatchdog watchdog(obs::SloSpec::parse("degraded=0,window=8"));
  service.set_watchdog(&watchdog);

  // Healthy traffic: no alert, no breach.
  service.refine("good");
  EXPECT_TRUE(service.recommend("good", 0, 4).ok);
  EXPECT_TRUE(watchdog.evaluate(1).empty());
  EXPECT_FALSE(watchdog.breached());

  // The sabotaged epoch degrades every later response; one is enough.
  service.refine("sab");
  const auto r = service.recommend("sab", 0, 4);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);
  const auto alerts = watchdog.evaluate(2);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].objective, "degraded");
  EXPECT_DOUBLE_EQ(alerts[0].observed, 1.0);
  EXPECT_TRUE(watchdog.breached());
  const auto rep = watchdog.report();
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.objectives.size(), 1u);
  EXPECT_EQ(rep.objectives[0].name, "degraded");
}

/// Requests flow into an attached TelemetryExporter: with every=1 each
/// request closes a tick, and the exemplar record names the tenant and
/// op that was served.
TEST(ServeSlo, ServiceFeedsTelemetryExporter) {
  const std::string path = temp_path("telemetry");
  serve::RecommendationService service;
  service.add_tenant(make_config("t", 41), make_instance(41));
  service.refine("t");

  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.every = 1;
  cfg.write_exposition = false;
  {
    obs::TelemetryExporter exporter(cfg, obs::MetricsRegistry::global());
    service.set_telemetry(&exporter);
    EXPECT_TRUE(service.recommend("t", 0, 4).ok);
    EXPECT_EQ(exporter.ticks(), 1u);
    service.set_telemetry(nullptr);
    exporter.finish();
  }
  const auto text = slurp(path);
  EXPECT_NE(text.find("\"kind\":\"snapshot\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"exemplar\",\"seq\":1,\"tenant\":\"t\",\"op\":\"recommend\""),
            std::string::npos);
  std::remove(path.c_str());
}

// ---- snapshot / restore ---------------------------------------------

TEST(ServeSnapshot, RoundTripServesIdenticalVersionAndStaysAuditable) {
  const std::string path = temp_path("ckpt");
  std::uint64_t epoch = 0, hash = 0, probes = 0;
  {
    serve::Tenant t(make_config("snap", 61), make_instance(61));
    t.refine_epoch();
    t.refine_epoch();
    const auto v = t.cache().current();
    epoch = v->epoch;
    hash = v->content_hash;
    probes = t.total_probes();
    t.save_snapshot(path);
  }

  serve::Tenant back(make_config("snap", 61), make_instance(61));
  back.restore_snapshot(path);
  const auto v = back.cache().current();
  EXPECT_EQ(v->epoch, epoch);
  EXPECT_EQ(v->content_hash, hash);  // byte-identical serving state
  EXPECT_EQ(back.epochs_started(), epoch);
  EXPECT_EQ(back.total_probes(), probes);
  // The restored board: a snapshot of it has the original's board bytes.
  const std::string again = temp_path("ckpt_again");
  back.save_snapshot(again);
  EXPECT_EQ(io::Checkpoint::load(again).require("board"),
            io::Checkpoint::load(path).require("board"));
  std::remove(again.c_str());

  // The restored tenant keeps refining and keeps a clean audit (the
  // auditor baseline excludes pre-snapshot traffic).
  const auto v3 = back.refine_epoch();
  EXPECT_EQ(v3->epoch, epoch + 1);
  EXPECT_FALSE(back.degraded());
  EXPECT_TRUE(back.audit().clean());

  // Restoring into a tenant that already ran epochs is rejected.
  serve::Tenant busy(make_config("snap", 61), make_instance(61));
  busy.refine_epoch();
  EXPECT_THROW(busy.restore_snapshot(path), std::logic_error);

  std::remove(path.c_str());
}

// A request line can restore any file, so a snapshot whose estimate
// rows are narrower than the instance (which corrupted the heap when
// published) fails typed before any state is touched, as does a
// candidate set with more known planes than value planes.
TEST(ServeSnapshot, RestoreRejectsMalformedEstimates) {
  const std::string path = temp_path("malformed");
  {
    serve::Tenant t(make_config("snap", 62), make_instance(62));
    t.refine_epoch();
    t.save_snapshot(path);
  }
  const auto ckpt = core::load_run_checkpoint(path);

  auto narrow = ckpt;
  for (auto& row : narrow.versions[0]) row = bits::BitVector(1);
  core::save_run_checkpoint(path, narrow);
  serve::RecommendationService service;
  service.add_tenant(make_config("snap", 62), make_instance(62));
  const auto resp = service.handle(
      serve::parse_request(R"({"op":"restore","tenant":"snap","path":")" + path + "\"}"));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("bits"), std::string::npos) << resp.error;
  EXPECT_EQ(service.tenant("snap")->cache().current()->epoch, 0u);
  EXPECT_EQ(service.tenant("snap")->total_probes(), 0u);

  auto uneven = ckpt;
  uneven.versions[2].emplace_back(ckpt.objects);
  core::save_run_checkpoint(path, uneven);
  serve::Tenant fresh(make_config("snap", 62), make_instance(62));
  EXPECT_THROW(fresh.restore_snapshot(path), io::CheckpointError);
  EXPECT_EQ(fresh.total_probes(), 0u);

  std::remove(path.c_str());
}

}  // namespace
