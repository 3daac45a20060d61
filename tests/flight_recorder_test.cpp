// Tests for obs::FlightRecorder: JSONL wire shape, staged per-player
// drain order (the --threads determinism mechanism), stage-cap overflow
// accounting, the strict reader, nested run scopes, the RecordSink file
// owner, and an end-to-end faulted run whose event stream reconciles
// with the run_end totals and the RunReport timeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "audit_json.hpp"

namespace {

using namespace tmwia;
using obs::RecorderEvent;

std::vector<RecorderEvent> parse(const std::string& text) {
  std::istringstream in(text);
  return obs::read_recorder_log(in);
}

std::vector<RecorderEvent> events_of_kind(const std::vector<RecorderEvent>& events,
                                          RecorderEvent::Kind kind) {
  std::vector<RecorderEvent> out;
  for (const auto& ev : events) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

TEST(FlightRecorder, JsonlWireShape) {
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  rec.run_begin("fp:zero", 0.5, 2, 4);
  rec.probe(1, 3, true, 7);
  rec.note("zr.adopt", 2, 1);
  rec.run_end("fp:zero", 5, 9);
  rec.flush();
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"ev\":\"run_begin\",\"a\":2,\"b\":4,\"x\":0.5,\"label\":\"fp:zero\"}\n"
            "{\"t\":1,\"ev\":\"probe\",\"p\":1,\"o\":3,\"a\":1,\"b\":7}\n"
            "{\"t\":2,\"ev\":\"note\",\"a\":2,\"b\":1,\"label\":\"zr.adopt\"}\n"
            "{\"t\":3,\"ev\":\"run_end\",\"a\":5,\"b\":9,\"label\":\"fp:zero\"}\n");
}

TEST(FlightRecorder, KindNamesRoundTrip) {
  for (int k = 1; k <= 18; ++k) {
    const auto kind = static_cast<RecorderEvent::Kind>(k);
    const std::string name = obs::to_string(kind);
    ASSERT_NE(name, "unknown") << k;
    const auto back = obs::kind_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(obs::kind_from_string("no_such_event").has_value());
  EXPECT_STREQ(obs::to_string(static_cast<RecorderEvent::Kind>(99)), "unknown");
}

/// Staged events drain in ascending player order at the next serial
/// emission, regardless of staging order — this is the property that
/// makes the stream thread-count invariant.
TEST(FlightRecorder, StagedEventsDrainInPlayerOrder) {
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  rec.run_begin("run", 0.5, 3, 8);
  rec.probe(2, 0, false, 0);
  rec.probe(0, 1, true, 0);
  rec.probe(1, 2, true, 0);
  rec.probe(0, 3, false, 1);
  rec.note("mark", 0, 0);
  rec.run_end("run", 0, 4);

  const auto events = parse(out.str());
  const auto probes = events_of_kind(events, RecorderEvent::Kind::kProbe);
  ASSERT_EQ(probes.size(), 4u);
  EXPECT_EQ(probes[0].player, 0u);
  EXPECT_EQ(probes[0].object, 1u);
  EXPECT_EQ(probes[1].player, 0u);
  EXPECT_EQ(probes[1].object, 3u);
  EXPECT_EQ(probes[2].player, 1u);
  EXPECT_EQ(probes[3].player, 2u);
  // All probes drained before the note that triggered the drain.
  EXPECT_EQ(events[5].kind, RecorderEvent::Kind::kNote);
}

/// Concurrent owner-write staging (thread p writes only player p's
/// stage) drains to the same deterministic stream.
TEST(FlightRecorder, ConcurrentStagingIsDeterministic) {
  auto run_once = [] {
    std::ostringstream out;
    obs::FlightRecorder rec(out);
    rec.run_begin("run", 0.5, 4, 16);
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (std::uint32_t p = 0; p < 4; ++p) {
      threads.emplace_back([&rec, p] {
        for (std::uint32_t i = 0; i < 8; ++i) {
          rec.probe(p, i, (i % 2) != 0, i);
        }
      });
    }
    for (auto& t : threads) t.join();
    rec.run_end("run", 0, 32);
    return out.str();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  const auto probes = events_of_kind(parse(a), RecorderEvent::Kind::kProbe);
  ASSERT_EQ(probes.size(), 32u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i].player, i / 8) << i;
    EXPECT_EQ(probes[i].object, i % 8) << i;
  }
}

/// Beyond the per-player stage cap, events are dropped but the drop is
/// surfaced as an explicit overflow record — a truncated log says so.
TEST(FlightRecorder, StageCapOverflowIsExplicit) {
  std::ostringstream out;
  obs::FlightRecorder rec(out, /*stage_cap=*/2);
  rec.run_begin("run", 0.5, 1, 8);
  for (std::uint32_t i = 0; i < 5; ++i) rec.probe(0, i, false, i);
  rec.run_end("run", 0, 5);

  const auto events = parse(out.str());
  EXPECT_EQ(events_of_kind(events, RecorderEvent::Kind::kProbe).size(), 2u);
  const auto overflows = events_of_kind(events, RecorderEvent::Kind::kOverflow);
  ASSERT_EQ(overflows.size(), 1u);
  EXPECT_TRUE(overflows[0].has(RecorderEvent::kHasPlayer));
  EXPECT_EQ(overflows[0].player, 0u);
  EXPECT_EQ(overflows[0].a, 3u);
}

/// Probe traffic before the first run_begin has no stage to land in;
/// it is counted and reported as a playerless overflow at flush().
TEST(FlightRecorder, PreRunBeginEventsSurfaceAtFlush) {
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  rec.probe(3, 1, true, 0);
  rec.flush();
  const auto events = parse(out.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RecorderEvent::Kind::kOverflow);
  EXPECT_FALSE(events[0].has(RecorderEvent::kHasPlayer));
  EXPECT_EQ(events[0].a, 1u);
}

/// Nested run scopes (unknown_d driving find_preferences, anytime
/// driving unknown_d) emit phase_begin/phase_end markers; only the
/// outermost pair is run_begin/run_end.
TEST(FlightRecorder, NestedScopesEmitPhaseMarkers) {
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  rec.run_begin("unknown_d", 0.5, 4, 8);
  rec.run_begin("fp:small", 0.5, 4, 8, /*d=*/3);
  rec.run_end("fp:small", 2, 10);
  rec.run_end("unknown_d", 2, 10);
  rec.flush();

  const auto events = parse(out.str());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, RecorderEvent::Kind::kRunBegin);
  EXPECT_EQ(events[1].kind, RecorderEvent::Kind::kPhaseBegin);
  EXPECT_EQ(events[1].label, "fp:small");
  EXPECT_EQ(events[1].a, 3u);  // the guessed D rides in `a`
  EXPECT_EQ(events[2].kind, RecorderEvent::Kind::kPhaseEnd);
  EXPECT_EQ(events[3].kind, RecorderEvent::Kind::kRunEnd);
}

/// phase_summary carries discrepancy only when an evaluator is set.
TEST(FlightRecorder, PhaseSummaryUsesEvaluator) {
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  rec.run_begin("run", 0.5, 2, 4);
  std::vector<bits::BitVector> outputs(2, bits::BitVector(4));
  const auto bare = rec.phase_summary("p0", outputs, 3, 17);
  EXPECT_EQ(bare.max_disc, -1.0);
  rec.set_output_evaluator([](const std::vector<bits::BitVector>&) {
    obs::FlightRecorder::PhaseEval eval;
    eval.max_disc = 4.0;
    eval.mean_disc = 1.5;
    return eval;
  });
  const auto eval = rec.phase_summary("p1", outputs, 5, 20);
  EXPECT_EQ(eval.max_disc, 4.0);
  rec.run_end("run", 5, 20);

  const auto summaries = events_of_kind(parse(out.str()), RecorderEvent::Kind::kPhaseSummary);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_FALSE(summaries[0].has(RecorderEvent::kHasX));
  EXPECT_EQ(summaries[0].player, 2u);  // outputs carried in `p`
  EXPECT_EQ(summaries[0].a, 3u);
  EXPECT_EQ(summaries[0].b, 17u);
  EXPECT_TRUE(summaries[1].has(RecorderEvent::kHasX));
  EXPECT_EQ(summaries[1].x, 4.0);
  EXPECT_EQ(summaries[1].y, 1.5);
}

TEST(FlightRecorder, ReaderRejectsMalformedInput) {
  std::istringstream bad_key("{\"t\":0,\"ev\":\"note\",\"zz\":1}\n");
  EXPECT_THROW(obs::read_recorder_log(bad_key), std::runtime_error);
  std::istringstream bad_kind("{\"t\":0,\"ev\":\"no_such\"}\n");
  EXPECT_THROW(obs::read_recorder_log(bad_kind), std::runtime_error);
}

/// Every field parses whole or the log is refused with the line number:
/// none of these forged lines may alias, wrap, default or round.
TEST(FlightRecorder, ReaderRejectsForgedFields) {
  const std::string good = "{\"t\":0,\"ev\":\"note\",\"a\":1,\"b\":2,\"label\":\"ok\"}\n";
  const std::vector<std::string> forged = {
      "{\"t\":1,\"ev\":\"probe\",\"p\":4294967296,\"o\":0,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"probe\",\"p\":0,\"o\":4294967296,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"probe\",\"p\":\"x\",\"o\":0,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"probe\",\"p\":-4294967296,\"o\":0,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"probe\",\"p\":+1,\"o\":0,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"probe\",\"p\":1x,\"o\":0,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"note\",\"a\":18446744073709551616,\"b\":0}",
      "{\"t\":1,\"ev\":\"probe\",\"p\":1,\"p\":0,\"o\":0,\"a\":1,\"b\":0}",
      "{\"t\":1,\"ev\":\"note\",\"a\":1,\"b\":0}{\"t\":2,\"ev\":\"note\"}",
      "{\"t\":1,\"ev\":\"note\",\"a\":1,\"b\":0} ",
      "{\"t\":1,\"ev\":\"run_begin\",\"a\":2,\"b\":2,\"x\":1e999,\"label\":\"r\"}",
      "{\"t\":1,\"ev\":\"run_begin\",\"a\":2,\"b\":2,\"x\":nan,\"label\":\"r\"}",
      "{\"t\":1,\"ev\":\"phase_summary\",\"p\":2,\"a\":1,\"b\":1,\"x\":1,\"y\":inf}",
      "{\"t\":1,\"ev\":\"note\",\"label\":\"\\u00e9\"}",
      "{\"t\":1,\"a\":1}",
      "{\"ev\":\"note\",\"a\":1}",
  };
  for (const auto& line : forged) {
    std::istringstream in(good + line + "\n");
    try {
      (void)obs::read_recorder_log(in);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("recorder log line 2: ", 0), 0u) << e.what();
    }
  }
  // The largest ids and values still parse exactly.
  std::istringstream edge(
      "{\"t\":18446744073709551615,\"ev\":\"probe\",\"p\":4294967295,\"o\":4294967295,"
      "\"a\":1,\"b\":18446744073709551615}\n");
  const auto events = obs::read_recorder_log(edge);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, 18446744073709551615ull);
  EXPECT_EQ(events[0].player, 4294967295u);
  EXPECT_EQ(events[0].object, 4294967295u);
  EXPECT_EQ(events[0].b, 18446744073709551615ull);
}

/// RecordSink owns a log file: a log written through it parses with
/// read_recorder_log, on one logical clock across run scopes.
TEST(FlightRecorder, RecordSinkWritesParsableLog) {
  EXPECT_THROW(obs::RecordSink(testing::TempDir() + "no-such-dir-tmwia/x.jsonl"),
               std::runtime_error);

  const std::string path = testing::TempDir() + "recordsink.jsonl";
  {
    obs::RecordSink sink(path);
    for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
      sink.recorder().run_begin("epoch", 0.5, 2, 4);
      sink.recorder().probe(1, 3, true, epoch);
      sink.recorder().run_end("epoch", 1, 1);
    }
  }

  std::ifstream in(path);
  const auto events = obs::read_recorder_log(in);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, RecorderEvent::Kind::kRunBegin);
  EXPECT_EQ(events[4].kind, RecorderEvent::Kind::kProbe);
  EXPECT_EQ(events[4].b, 1u);  // the second epoch's probe
  EXPECT_EQ(events[5].t, 5u);  // one logical clock across both epochs
  std::remove(path.c_str());
}

/// End to end: a faulted unknown-D run records a stream whose per-player
/// charged attempts (probe + probe_failed events) reconcile exactly with
/// the run_end totals, and which is byte-identical run to run. The same
/// reconciliation is what `tmwia_cli replay` checks on real logs.
TEST(FlightRecorder, FaultedRunStreamReconcilesWithTotals) {
  rng::Rng gen(11);
  const auto inst = matrix::planted_community(48, 48, {0.5, 1}, gen);
  const auto plan = faults::FaultPlan::parse("seed=3,probe=0.05,retry=3");

  core::RunReport report;
  auto run_once = [&](core::RunReport* out_report) {
    std::ostringstream out;
    obs::FlightRecorder rec(out);
    billboard::ProbeOracle oracle(inst.matrix);
    oracle.set_recorder(&rec);
    faults::FaultInjector injector(plan, inst.matrix.players());
    oracle.set_fault_injector(&injector);
    auto res = core::find_preferences_unknown_d(oracle, nullptr, 0.5,
                                                core::Params::practical(), rng::Rng(5));
    rec.flush();
    EXPECT_TRUE(events_of_kind(parse(out.str()), RecorderEvent::Kind::kOverflow).empty());
    if (out_report != nullptr) *out_report = std::move(res);
    return out.str();
  };

  const auto text1 = run_once(&report);
  const auto text2 = run_once(nullptr);
  EXPECT_EQ(text1, text2);

  const auto events = parse(text1);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, RecorderEvent::Kind::kRunBegin);
  EXPECT_EQ(events.front().label, "unknown_d");
  // Exactly one outermost scope, closed by the last event.
  ASSERT_EQ(events_of_kind(events, RecorderEvent::Kind::kRunEnd).size(), 1u);
  EXPECT_EQ(events.back().kind, RecorderEvent::Kind::kRunEnd);
  // Logical clock is gapless from 0.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t, i);
  }

  // Charged attempts in the stream == run_end's probe total ==
  // the RunReport's own accounting.
  std::uint64_t charged = 0;
  for (const auto& ev : events) {
    if (ev.kind == RecorderEvent::Kind::kProbe ||
        ev.kind == RecorderEvent::Kind::kProbeFailed) {
      ++charged;
    }
  }
  const auto& run_end = events.back();
  EXPECT_EQ(charged, run_end.b);
  EXPECT_EQ(report.total_probes, run_end.b);
  EXPECT_EQ(report.rounds, run_end.a);

  // Every timeline checkpoint has its phase_summary record in the
  // stream, in order (the stream also carries the nested per-guess
  // fp:* summaries, so the timeline is a subsequence).
  const auto summaries = events_of_kind(events, RecorderEvent::Kind::kPhaseSummary);
  ASSERT_GE(summaries.size(), report.timeline.size());
  std::size_t si = 0;
  for (const auto& cp : report.timeline) {
    while (si < summaries.size() &&
           (summaries[si].label != cp.label || summaries[si].a != cp.rounds ||
            summaries[si].b != cp.total_probes)) {
      ++si;
    }
    ASSERT_LT(si, summaries.size()) << "no phase_summary for checkpoint " << cp.label;
    ++si;
  }
  // And the report renders them into JSON.
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"algo\":\"unknown_d\""), std::string::npos);
  EXPECT_NE(json.find("\"timeline\":["), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"select\""), std::string::npos);
}

/// A faulted lockstep (RoundScheduler) run records round markers,
/// probes, posts and fault transitions that replay cleanly through a
/// fresh ProtocolAuditor — the same reconstruction `tmwia_cli replay`
/// performs, here with the A1-A3 round checks active.
TEST(FlightRecorder, SchedulerLogReplaysThroughAuditor) {
  class Sweep final : public billboard::PlayerStrategy {
   public:
    explicit Sweep(std::size_t m) : m_(m) {}
    std::optional<matrix::ObjectId> next_probe(const billboard::RoundView&) override {
      if (next_ >= m_) return std::nullopt;
      return static_cast<matrix::ObjectId>(next_);
    }
    void on_result(matrix::ObjectId, bool) override { ++next_; }
    [[nodiscard]] bool done() const override { return next_ >= m_; }

   private:
    std::size_t m_;
    std::size_t next_ = 0;
  };

  rng::Rng gen(31);
  const auto inst = matrix::planted_community(6, 12, {0.5, 1}, gen);
  auto plan = faults::FaultPlan::parse("seed=2,probe=0.1,retry=3");
  plan.explicit_crashes = {{1, {2, 5}}};  // player 1 down for rounds [2, 5)

  std::ostringstream out;
  obs::FlightRecorder rec(out);
  billboard::ProbeOracle oracle(inst.matrix);
  oracle.set_recorder(&rec);  // the scheduler hands it to its own board
  faults::FaultInjector injector(plan, inst.matrix.players());
  oracle.set_fault_injector(&injector);
  billboard::RoundScheduler sched(oracle);
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  for (std::size_t p = 0; p < inst.matrix.players(); ++p) {
    strategies.push_back(std::make_unique<Sweep>(inst.matrix.objects()));
  }
  const auto res = sched.run(strategies, /*max_rounds=*/128);
  rec.flush();
  EXPECT_TRUE(res.all_done);

  const auto events = parse(out.str());
  ASSERT_GE(events.size(), 2u);
  ASSERT_EQ(events.front().kind, RecorderEvent::Kind::kRunBegin);
  EXPECT_EQ(events.front().label, "scheduler");
  ASSERT_EQ(events.back().kind, RecorderEvent::Kind::kRunEnd);
  // The crash window shows up as explicit transition events.
  const auto crashes = events_of_kind(events, RecorderEvent::Kind::kCrash);
  const auto recovers = events_of_kind(events, RecorderEvent::Kind::kRecover);
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].player, 1u);
  EXPECT_EQ(crashes[0].round, 2u);
  ASSERT_EQ(recovers.size(), 1u);
  EXPECT_EQ(recovers[0].round, 5u);

  // Replay: re-drive billboard state and the auditor from events only.
  billboard::ProtocolAuditor auditor(events.front().a, events.front().b);
  std::vector<bits::BitVector> posted(events.front().a,
                                      bits::BitVector(events.front().b));
  bool in_round = false;
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    const auto& ev = events[i];
    switch (ev.kind) {
      case RecorderEvent::Kind::kRoundBegin:
        auditor.begin_round(ev.round);
        in_round = true;
        break;
      case RecorderEvent::Kind::kRoundEnd:
        if (in_round) auditor.end_round();
        in_round = false;
        break;
      case RecorderEvent::Kind::kProbe:
        auditor.on_probe_attempt(ev.player);
        auditor.on_probe(ev.player, ev.object);
        break;
      case RecorderEvent::Kind::kProbeFailed:
        auditor.on_probe_attempt(ev.player);
        break;
      case RecorderEvent::Kind::kPost:
        auditor.on_post(ev.player, ev.object);
        posted[ev.player].set(ev.object, true);
        break;
      default:
        break;
    }
  }
  auditor.verify_totals(events.back().b, events.back().a);
  const auto audit = auditor.report();
  EXPECT_TRUE(audit.clean()) << audit_json(audit);
  EXPECT_GT(audit.rounds_audited, 0u);
  // Every player eventually posted its full sweep: the billboard state
  // reconstructed from the log matches the run's final posted sets.
  for (std::size_t p = 0; p < posted.size(); ++p) {
    EXPECT_EQ(posted[p].count_ones(), inst.matrix.objects()) << p;
  }
}

}  // namespace
