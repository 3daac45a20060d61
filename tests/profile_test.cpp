// obs:: profiler + SLO watchdog + telemetry exporter.
//
// Contract coverage:
//   * ProfileZone trees: nesting via the thread-local current zone,
//     self-cost deposits, name-sorted children, exact JSON shape;
//   * byte-determinism: the same logical workload run serially and
//     across writer threads produces byte-identical attribution JSON
//     (the owner-write shard merge commutes, report() re-keys by name);
//   * the (profiler, zone) pair: a cost lands in the profiler whose
//     zone is current and in no other; a thread with no profiler
//     records nothing; engine::ThreadPool hands the caller's pair to
//     its workers, so their deposits land in the caller's subtree;
//   * wall sampling: opt-in, and omitted from the default export;
//   * SloSpec parsing, the watchdog's rolling-window objectives
//     (exact-order-statistic p99, degraded count, cumulative audit),
//     sticky breach, and the alert/report JSON shapes;
//   * TelemetryExporter: count-based tick cadence, record kinds in the
//     JSONL stream, Prometheus exposition sidecar, alert and exemplar
//     records, finish() idempotence.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/obs/telemetry.hpp"

namespace {

using namespace tmwia;

std::string temp_path(const std::string& tag) {
  return testing::TempDir() + "profile_" + tag + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".tmp";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const obs::ProfileNode* find_child(const obs::ProfileNode& node, const std::string& name) {
  for (const auto& c : node.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

// ---- profiler --------------------------------------------------------

TEST(Profile, CostNamesAreStableJsonKeys) {
  EXPECT_EQ(obs::cost_name(obs::Cost::kProbes), "probes");
  EXPECT_EQ(obs::cost_name(obs::Cost::kKernelBytes), "kernel_bytes");
  EXPECT_EQ(obs::cost_name(obs::Cost::kRankQueries), "rank_queries");
  EXPECT_EQ(obs::cost_name(obs::Cost::kLocks), "locks");
  EXPECT_EQ(obs::cost_name(obs::Cost::kRounds), "rounds");
  EXPECT_EQ(obs::cost_name(obs::Cost::kCalls), "calls");
  EXPECT_EQ(obs::cost_name(obs::Cost::kWallUs), "wall_us");
}

TEST(Profile, ZoneTreeNestsAndRendersExactJson) {
  obs::Profiler prof;
  {
    obs::ProfileZone outer("outer", &prof);
    obs::profile_cost(obs::Cost::kProbes, 5);
    {
      obs::ProfileZone inner("inner", &prof);
      obs::profile_cost(obs::Cost::kRounds, 2);
    }
  }
  const auto rep = prof.report();
  ASSERT_EQ(rep.root.name, "root");
  const auto* outer = find_child(rep.root, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->cost(obs::Cost::kProbes), 5u);
  EXPECT_EQ(outer->cost(obs::Cost::kCalls), 1u);
  const auto* inner = find_child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->cost(obs::Cost::kRounds), 2u);
  // Exact export bytes: only nonzero axes, fixed axis order, no wall.
  EXPECT_EQ(rep.to_json(),
            "{\"name\":\"root\",\"costs\":{},\"children\":["
            "{\"name\":\"outer\",\"costs\":{\"probes\":5,\"calls\":1},\"children\":["
            "{\"name\":\"inner\",\"costs\":{\"rounds\":2,\"calls\":1},\"children\":[]}"
            "]}]}");
  // Flamegraph export: one axis, self costs as "value".
  EXPECT_EQ(rep.flamegraph_json(obs::Cost::kCalls),
            "{\"name\":\"root\",\"value\":0,\"children\":["
            "{\"name\":\"outer\",\"value\":1,\"children\":["
            "{\"name\":\"inner\",\"value\":1,\"children\":[]}"
            "]}]}");
}

/// Interning order must not leak into exports: zones opened b-then-a
/// still render a-then-b (children sorted by name).
TEST(Profile, ChildrenSortedByNameNotInterningOrder) {
  obs::Profiler prof;
  { obs::ProfileZone z("b", &prof); }
  { obs::ProfileZone z("a", &prof); }
  const auto json = prof.report().to_json();
  const auto pos_a = json.find("\"name\":\"a\"");
  const auto pos_b = json.find("\"name\":\"b\"");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
}

/// The determinism contract behind RunReport::profile: equal logical
/// work deposits the same tree bytes no matter how many writer threads
/// carried it (shard merge is a sum; report() re-keys by name).
TEST(Profile, ByteIdenticalAcrossWriterThreadCounts) {
  const auto work = [](obs::Profiler& prof, std::uint64_t salt) {
    obs::ProfileZone phase("phase", &prof);
    obs::profile_cost(obs::Cost::kProbes, 100 + salt);
    obs::ProfileZone kernel("kernel", &prof);
    obs::profile_cost(obs::Cost::kKernelBytes, 64 * (salt + 1));
  };

  obs::Profiler serial;
  for (std::uint64_t t = 0; t < 4; ++t) work(serial, t);

  obs::Profiler threaded;
  std::vector<std::thread> pool;
  for (std::uint64_t t = 0; t < 4; ++t) {
    pool.emplace_back([&threaded, t, &work] { work(threaded, t); });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(serial.report().to_json(), threaded.report().to_json());
  EXPECT_NE(serial.report().to_json().find("\"probes\":406"), std::string::npos);
}

/// engine::ThreadPool hands the caller's (profiler, zone) pair to every
/// thread that runs a chunk: the workers' zones and costs land in the
/// caller's subtree of the caller's profiler, and the workers go back
/// to having no profiler afterwards.
TEST(Profile, AmbientZonePropagatesToWorkerThreads) {
  constexpr std::size_t kItems = 64;
  engine::ThreadPool pool(4);
  obs::Profiler prof;
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  {
    obs::ProfileZone parent("parent", &prof);
    pool.run(
        0, kItems,
        [&](std::size_t) {
          if (std::this_thread::get_id() != caller) {
            worker_ran.store(true, std::memory_order_release);
          } else {
            // The caller runs chunks too: hold it (for at most 5 s)
            // until a worker has run one, so the hand-off is exercised.
            for (int i = 0; i < 5000 && !worker_ran.load(std::memory_order_acquire); ++i) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          obs::ProfileZone child("child");
          obs::profile_cost(obs::Cost::kRankQueries, 3);
        },
        1);
  }
  ASSERT_TRUE(worker_ran.load(std::memory_order_acquire));
  // Outside the zone the caller has no profiler, and neither has any
  // thread that runs the next job's chunks.
  std::atomic<std::size_t> unprofiled{0};
  pool.run(
      0, kItems,
      [&unprofiled](std::size_t) {
        if (obs::Profiler::current().prof == nullptr) {
          unprofiled.fetch_add(1, std::memory_order_relaxed);
        }
      },
      1);
  EXPECT_EQ(unprofiled.load(std::memory_order_relaxed), kItems);

  const auto rep = prof.report();
  const auto* parent = find_child(rep.root, "parent");
  ASSERT_NE(parent, nullptr);
  const auto* child = find_child(*parent, "child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->cost(obs::Cost::kRankQueries), 3 * kItems);
  EXPECT_EQ(child->cost(obs::Cost::kCalls), kItems);
  EXPECT_EQ(find_child(rep.root, "child"), nullptr);
}

/// A thread's current zone names its profiler. Zone ids are only
/// meaningful in their own profiler's table: here `mine_y` and
/// `other_b` share an id, and the cost deposited while `mine_y` is
/// current must land on `mine_y`, not on `other_b`.
TEST(Profile, CostLandsInTheCurrentZonesProfilerOnly) {
  obs::Profiler other;
  obs::Profiler mine;
  const obs::ProfileScope scope(&other);
  { obs::ProfileZone a("other_a"); }
  obs::Profiler::ZoneId b_id = 0;
  {
    obs::ProfileZone b("other_b");
    b_id = obs::Profiler::current().zone;
  }
  {
    obs::ProfileZone x("mine_x", &mine);
    obs::ProfileZone y("mine_y", &mine);
    ASSERT_EQ(obs::Profiler::current().zone, b_id);
    obs::profile_cost(obs::Cost::kProbes, 7);
  }
  // Leaving mine's zones makes `other` current again, at its root.
  obs::profile_cost(obs::Cost::kProbes, 1);

  const auto mine_rep = mine.report();
  const auto* x = find_child(mine_rep.root, "mine_x");
  ASSERT_NE(x, nullptr);
  const auto* y = find_child(*x, "mine_y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->cost(obs::Cost::kProbes), 7u);
  EXPECT_EQ(x->cost(obs::Cost::kProbes), 0u);
  EXPECT_EQ(mine_rep.root.cost(obs::Cost::kProbes), 0u);

  const auto other_rep = other.report();
  EXPECT_EQ(other_rep.root.cost(obs::Cost::kProbes), 1u);
  for (const auto& child : other_rep.root.children) {
    EXPECT_EQ(child.cost(obs::Cost::kProbes), 0u) << child.name;
  }
}

/// On a thread with no profiler installed, zones and costs record
/// nothing anywhere, and a zone or scope handed a null profiler is a
/// no-op.
TEST(Profile, NoProfilerInstalledRecordsNothing) {
  obs::Profiler bystander;
  ASSERT_EQ(obs::Profiler::current().prof, nullptr);
  {
    obs::ProfileZone z("ghost");
    obs::profile_cost(obs::Cost::kProbes, 1);
    obs::ProfileZone n("null", nullptr);
    const obs::ProfileScope none(nullptr);
    obs::profile_cost(obs::Cost::kProbes, 1);
    EXPECT_EQ(obs::Profiler::current().prof, nullptr);
  }
  EXPECT_EQ(obs::Profiler::current().prof, nullptr);
  const auto rep = bystander.report();
  EXPECT_TRUE(rep.root.children.empty());
  EXPECT_EQ(rep.root.cost(obs::Cost::kProbes), 0u);
}

/// A ProfileScope installs its profiler at the root and deposits
/// nothing itself: costs made outside any zone land on the root (the
/// serve session's lock counts), a scope over the profiler already
/// current changes nothing, and the thread's previous pair comes back
/// when the scope ends.
TEST(Profile, ScopeInstallsAtTheRootAndRestores) {
  obs::Profiler prof;
  {
    const obs::ProfileScope scope(&prof);
    EXPECT_EQ(obs::Profiler::current().prof, &prof);
    obs::profile_cost(obs::Cost::kLocks, 4);
    obs::ProfileZone z("inner");
    const obs::ProfileScope same(&prof);
    obs::profile_cost(obs::Cost::kLocks, 1);
  }
  EXPECT_EQ(obs::Profiler::current().prof, nullptr);
  EXPECT_EQ(prof.report().to_json(),
            "{\"name\":\"root\",\"costs\":{\"locks\":4},\"children\":["
            "{\"name\":\"inner\",\"costs\":{\"locks\":1,\"calls\":1},\"children\":[]}]}");
}

/// reset() zeroes the slots but keeps interned ids valid — the
/// pre-interned hot-path handles (serve request zones) survive.
TEST(Profile, ResetKeepsInternedZoneIdsValid) {
  obs::Profiler prof;
  const auto id = prof.intern(obs::Profiler::kRoot, "hot");
  {
    obs::ProfileZone z(id, &prof);
    obs::profile_cost(obs::Cost::kLocks, 7);
  }
  const auto rep_before = prof.report();
  const auto* before = find_child(rep_before.root, "hot");
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->cost(obs::Cost::kLocks), 7u);

  prof.reset();
  const auto rep_zeroed = prof.report();
  const auto* zeroed = find_child(rep_zeroed.root, "hot");
  ASSERT_NE(zeroed, nullptr);  // zone survives, costs are gone
  EXPECT_EQ(zeroed->cost(obs::Cost::kLocks), 0u);

  {
    obs::ProfileZone z(id, &prof);  // the cached id still deposits correctly
    obs::profile_cost(obs::Cost::kLocks, 2);
  }
  const auto rep_after = prof.report();
  const auto* after = find_child(rep_after.root, "hot");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->cost(obs::Cost::kLocks), 2u);
  EXPECT_EQ(after->cost(obs::Cost::kCalls), 1u);
}

/// Wall sampling is opt-in and quarantined from the deterministic
/// export: deposits appear under include_wall=true only.
TEST(Profile, WallSamplingIsOptInAndOmittedByDefault) {
  obs::Profiler prof;
  prof.set_wall_sampling(true);
  {
    obs::ProfileZone z("timed", &prof);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto rep = prof.report();
  const auto* timed = find_child(rep.root, "timed");
  ASSERT_NE(timed, nullptr);
  EXPECT_GE(timed->cost(obs::Cost::kWallUs), 1000u);
  EXPECT_EQ(rep.to_json(false).find("wall_us"), std::string::npos);
  EXPECT_NE(rep.to_json(true).find("\"wall_us\":"), std::string::npos);
}

// ---- SLO watchdog ----------------------------------------------------

TEST(Slo, SpecParsesDeclaredObjectivesAndRejectsJunk) {
  const auto spec = obs::SloSpec::parse("p99_us=5000,staleness=4,degraded=0,audit=1,window=32");
  EXPECT_DOUBLE_EQ(spec.p99_us, 5000.0);
  EXPECT_EQ(spec.staleness, 4);
  EXPECT_EQ(spec.degraded, 0);
  EXPECT_EQ(spec.audit, 1);
  EXPECT_EQ(spec.window, 32u);
  EXPECT_TRUE(spec.any());

  // Absent keys leave objectives disabled; the empty spec enables none.
  const auto empty = obs::SloSpec::parse("");
  EXPECT_FALSE(empty.any());
  EXPECT_EQ(empty.window, 256u);
  const auto partial = obs::SloSpec::parse("degraded=0");
  EXPECT_TRUE(partial.any());
  EXPECT_LT(partial.p99_us, 0.0);

  EXPECT_THROW((void)obs::SloSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)obs::SloSpec::parse("p99_us=abc"), std::invalid_argument);
  EXPECT_THROW((void)obs::SloSpec::parse("p99_us"), std::invalid_argument);
  EXPECT_THROW((void)obs::SloSpec::parse("window=0"), std::invalid_argument);
  EXPECT_THROW((void)obs::SloSpec::parse("degraded=-1"), std::invalid_argument);
}

/// The message SloSpec::parse throws for `spec` ("" if it parses).
std::string slo_error(const std::string& spec) {
  try {
    (void)obs::SloSpec::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Values parse whole or not at all: no NaN, infinity or fraction
// reaches a cast to an integer, and no window allocates past the cap.
TEST(Slo, SpecRefusesValuesNoCastCanHold) {
  for (const char* bound : {"nan", "inf", "-inf", "1e400", "5000x", " 5000", "-1"}) {
    EXPECT_NE(slo_error(std::string("p99_us=") + bound).find("'p99_us' needs"),
              std::string::npos)
        << bound;
  }
  for (const char* key : {"staleness", "degraded", "audit", "window"}) {
    for (const char* count : {"nan", "inf", "1e30", "0.5", "2.0", "+3", "-1",
                              "9223372036854775808", "18446744073709551616"}) {
      const auto what = slo_error(std::string(key) + "=" + count);
      EXPECT_NE(what.find("'" + std::string(key) + "' needs a whole number"),
                std::string::npos)
          << key << "=" << count << ": " << what;
    }
  }
  EXPECT_EQ(obs::SloSpec::parse("staleness=9223372036854775807").staleness,
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(obs::SloSpec::parse("p99_us=0.5").p99_us, 0.5);
  // The window is capped, so its ring's up-front allocation is bounded.
  EXPECT_EQ(obs::SloSpec::parse("window=1048576").window, obs::kMaxSloWindow);
  EXPECT_NE(slo_error("window=1048577").find("'window' needs a whole number in [1, 1048576]"),
            std::string::npos);
  EXPECT_NE(slo_error("window=0").find("'window'"), std::string::npos);
}

TEST(Slo, DegradedObjectiveAlertsAndBreachIsSticky) {
  obs::SloWatchdog dog(obs::SloSpec::parse("degraded=0,window=8"));
  dog.observe_request(100, 0, false);
  EXPECT_TRUE(dog.evaluate(1).empty());
  EXPECT_FALSE(dog.breached());

  dog.observe_request(100, 0, true);
  const auto alerts = dog.evaluate(2);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].objective, "degraded");
  EXPECT_DOUBLE_EQ(alerts[0].observed, 1.0);
  EXPECT_DOUBLE_EQ(alerts[0].threshold, 0.0);
  EXPECT_EQ(alerts[0].window_count, 2u);
  EXPECT_EQ(alerts[0].to_json(),
            "{\"kind\":\"alert\",\"seq\":2,\"objective\":\"degraded\","
            "\"observed\":1,\"threshold\":0,\"window\":2}");
  EXPECT_TRUE(dog.breached());

  // The breach outlives the offending window: after `window` clean
  // requests evaluate() stops alerting, but breached() stays true.
  for (int i = 0; i < 8; ++i) dog.observe_request(100, 0, false);
  EXPECT_TRUE(dog.evaluate(3).empty());
  EXPECT_TRUE(dog.breached());

  const auto rep = dog.report();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.evaluations, 3u);
  ASSERT_EQ(rep.objectives.size(), 1u);
  EXPECT_EQ(rep.objectives[0].name, "degraded");
  EXPECT_EQ(rep.objectives[0].breaches, 1u);
  EXPECT_FALSE(rep.objectives[0].ok);
  EXPECT_NE(rep.to_json().find("\"ok\":false,\"evaluations\":3"), std::string::npos);
}

/// p99 is the exact order statistic over the rolling window, not a
/// bucketed estimate: with ten samples the rank-9 latency decides.
TEST(Slo, P99IsExactOrderStatisticOverWindow) {
  obs::SloWatchdog dog(obs::SloSpec::parse("p99_us=500,window=16"));
  for (std::uint64_t i = 1; i <= 10; ++i) dog.observe_request(i * 100, 0, false);
  const auto alerts = dog.evaluate(1);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].objective, "p99_us");
  EXPECT_DOUBLE_EQ(alerts[0].observed, 1000.0);  // max of 100..1000

  // At threshold == worst there is no breach (strict >).
  obs::SloWatchdog lenient(obs::SloSpec::parse("p99_us=1000,window=16"));
  for (std::uint64_t i = 1; i <= 10; ++i) lenient.observe_request(i * 100, 0, false);
  EXPECT_TRUE(lenient.evaluate(1).empty());
  EXPECT_FALSE(lenient.breached());
}

/// The audit objective is cumulative (not windowed) and evaluates even
/// before any request arrives.
TEST(Slo, AuditViolationsAreCumulative) {
  obs::SloWatchdog dog(obs::SloSpec::parse("audit=0,window=4"));
  EXPECT_TRUE(dog.evaluate(1).empty());
  dog.observe_audit_violations(2);
  const auto alerts = dog.evaluate(2);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].objective, "audit");
  EXPECT_DOUBLE_EQ(alerts[0].observed, 2.0);
  // Violations never age out of a window.
  EXPECT_EQ(dog.evaluate(3).size(), 1u);
}

// ---- telemetry exporter ----------------------------------------------

/// Count kind-prefixes per line of a JSONL stream.
std::map<std::string, int> kind_counts(const std::string& text) {
  std::map<std::string, int> counts;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string prefix = "{\"kind\":\"";
    EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
    const auto end = line.find('"', prefix.size());
    counts[line.substr(prefix.size(), end - prefix.size())]++;
  }
  return counts;
}

TEST(Telemetry, CountBasedCadenceAndRecordKinds) {
  const std::string path = temp_path("stream");
  obs::MetricsRegistry reg;
  reg.counter("req.count").inc();
  obs::Profiler prof;
  {
    obs::ProfileZone z("phase", &prof);
    obs::profile_cost(obs::Cost::kProbes, 11);
  }
  obs::SloWatchdog dog(obs::SloSpec::parse("degraded=0,window=8"));

  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.every = 2;
  obs::TelemetryExporter exporter(cfg, reg, &prof, &dog);
  for (int i = 0; i < 5; ++i) {
    exporter.observe_request("t0", "recommend", 100 + i, 0, false);
  }
  EXPECT_EQ(exporter.ticks(), 2u);  // requests 2 and 4 closed ticks
  exporter.finish();
  EXPECT_EQ(exporter.ticks(), 3u);  // final tick over the odd request
  EXPECT_EQ(exporter.alerts_written(), 0u);

  const auto text = slurp(path);
  const auto counts = kind_counts(text);
  EXPECT_EQ(counts.at("snapshot"), 3);
  EXPECT_EQ(counts.at("exemplar"), 5);  // 2 + 2 + 1, every request is a tail exemplar here
  EXPECT_EQ(counts.at("slo_report"), 1);
  EXPECT_EQ(counts.count("alert"), 0u);
  std::uint64_t total = 0;
  for (const auto& [kind, n] : counts) total += static_cast<std::uint64_t>(n);
  EXPECT_EQ(exporter.records_written(), total);
  // Snapshots embed the metrics and the profiler tree; the stream ends
  // with the SLO verdict.
  EXPECT_NE(text.find("\"metrics\":{\"counters\":{\"req.count\":1}"), std::string::npos);
  EXPECT_NE(text.find("\"profile\":{\"name\":\"root\""), std::string::npos);
  EXPECT_NE(text.rfind("{\"kind\":\"slo_report\""), std::string::npos);
  EXPECT_NE(text.find("\"report\":{\"ok\":true"), std::string::npos);

  // The Prometheus exposition sidecar carries the same series under
  // the tmwia_ prefix with dots mapped to underscores.
  const auto prom = slurp(path + ".prom");
  EXPECT_NE(prom.find("tmwia_req_count 1"), std::string::npos);

  // finish() is idempotent, and late observations are dropped.
  const auto records = exporter.records_written();
  exporter.finish();
  exporter.observe_request("t0", "recommend", 1, 0, false);
  EXPECT_EQ(exporter.records_written(), records);

  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
}

TEST(Telemetry, AlertsAndExemplarsFlowIntoStream) {
  const std::string path = temp_path("alerts");
  obs::MetricsRegistry reg;
  obs::SloWatchdog dog(obs::SloSpec::parse("degraded=0,window=8"));

  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.every = 1;  // tick per request
  obs::TelemetryExporter exporter(cfg, reg, nullptr, &dog);
  // The service feeds the watchdog and the exporter side by side
  // (serve::RecommendationService::observe); mirror that here.
  dog.observe_request(250, 2, true);
  exporter.observe_request("sab", "recommend", 250, 2, true);
  exporter.finish();

  // Level-triggered: the request's tick alerts, and finish()'s final
  // tick re-evaluates the still-degraded window and alerts again.
  EXPECT_EQ(exporter.alerts_written(), 2u);
  EXPECT_TRUE(dog.breached());
  const auto text = slurp(path);
  EXPECT_NE(text.find("{\"kind\":\"alert\",\"seq\":1,\"objective\":\"degraded\""),
            std::string::npos);
  // The slow-tail exemplar carries the request field for field.
  EXPECT_NE(text.find("{\"kind\":\"exemplar\",\"seq\":1,\"tenant\":\"sab\","
                      "\"op\":\"recommend\",\"latency_us\":250,\"staleness\":2,"
                      "\"degraded\":true}"),
            std::string::npos);
  EXPECT_NE(text.find("\"report\":{\"ok\":false"), std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
}

TEST(Telemetry, ThrowsWhenStreamPathCannotOpen) {
  obs::MetricsRegistry reg;
  obs::TelemetryConfig cfg;
  cfg.path = testing::TempDir() + "no-such-dir-tmwia/stream.jsonl";
  EXPECT_THROW(obs::TelemetryExporter(cfg, reg), std::runtime_error);
}

}  // namespace
