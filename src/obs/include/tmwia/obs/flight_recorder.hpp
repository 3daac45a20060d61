// FlightRecorder: an event-sourced record of one run, deterministic
// enough to replay.
//
// The billboard model is temporal — one probe per player per lockstep
// round, quality only meaningful per phase — so the recorder captures
// the run as an ordered event stream: run/phase transitions of the
// Zero/Small/Large-Radius tower, scheduler rounds, every probe
// (player, object, result, invocation), result and vector posts, fault
// events, and per-phase summary records (cumulative cost plus max/mean
// discrepancy against the planted matrix when the harness installs an
// output evaluator — the library itself never sees the truth).
//
// Determinism contract (the same one MetricsRegistry and Profiler obey):
// records carry a per-recorder *logical clock*, never wall time, and
// the stream for a fixed seed and fault plan is byte-identical across
// `--threads`. Parallel player code cannot write to the sink directly
// — per-probe events are staged in per-player owner-write buffers
// (exactly the MetricsRegistry shard discipline: player p's events are
// appended only by the thread running player p) and drained in player
// order at the next *serial* emission (a phase boundary, a scheduler
// round, run end). Serial emissions therefore double as barriers; they
// must only be issued from serial code with no staged writers in
// flight, which the parallel_for join points guarantee.
//
// Memory is bounded: each player's stage holds at most `stage_cap`
// events; beyond that events are dropped and surfaced as an explicit
// `overflow` record at the next drain, so a truncated log says so
// instead of silently lying.
//
// A recorder belongs to the run it records: the harness attaches it to
// that run's ProbeOracle and Billboard (ProbeOracle::set_recorder,
// Billboard::set_recorder), and every record point reads it from an
// object the run already holds. Disabled recording is one member load
// and a null test per instrumented site, so the hooks stay compiled in
// everywhere at ~zero cost — the same fast-path budget the metrics
// layer is held to (bench/e11). Harnesses write logs to files through
// RecordSink, the one owner of a log file.
//
// One wire format: JSONL, one object per record with a fixed key order
// (t, ev, round, p, o, a, b, x, y, label), so logs are jq-able and
// byte-comparable. read_recorder_log() parses it strictly: every line
// parses whole or fails with a typed error naming the line.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {

/// One record of the flight log. Which fields are meaningful is
/// per-kind (see DESIGN.md section 10); `mask` says which are present.
struct RecorderEvent {
  enum class Kind : std::uint8_t {
    kRunBegin = 1,   ///< label=algo, x=alpha, a=players, b=objects
    kRunEnd = 2,     ///< label=algo, a=rounds, b=total probes (run deltas)
    kPhaseBegin = 3, ///< nested entry point: label=algo/branch, x=alpha, a=D
    kPhaseEnd = 4,   ///< label, a=rounds in phase, b=probes in phase
    kPhaseSummary = 5, ///< label, p=players, a=cum rounds, b=cum probes,
                       ///< x=max disc, y=mean disc (when evaluator set)
    kRoundBegin = 6, ///< round (scheduler lockstep)
    kRoundEnd = 7,   ///< round, a=active players, b=result posts
    kProbe = 8,      ///< p, o, a=value(0/1), b=invocation index
    kProbeFailed = 9,  ///< p, o, b=invocation index (charged, result lost)
    kPost = 10,        ///< round, p, o — result published at round end
    kVectorPost = 11,  ///< p, label=channel, a=vector hash, b=vector bits
    kCrash = 12,       ///< p (+round in scheduler mode)
    kRecover = 13,     ///< p, round
    kPostDropped = 14, ///< p, round
    kPostDelayed = 15, ///< p, round, a=due round
    kDegraded = 16,    ///< p abandoned probing (retry exhaustion)
    kOverflow = 17,    ///< p, a=events dropped since last drain
    kNote = 18,        ///< label, a, b — serial progress marks (drain points)
  };

  static constexpr std::uint8_t kHasRound = 1;
  static constexpr std::uint8_t kHasPlayer = 2;
  static constexpr std::uint8_t kHasObject = 4;
  static constexpr std::uint8_t kHasA = 8;
  static constexpr std::uint8_t kHasB = 16;
  static constexpr std::uint8_t kHasX = 32;
  static constexpr std::uint8_t kHasY = 64;
  static constexpr std::uint8_t kHasLabel = 128;

  Kind kind = Kind::kNote;
  std::uint8_t mask = 0;
  std::uint64_t t = 0;  ///< logical clock, assigned at emission
  std::uint64_t round = 0;
  std::uint32_t player = 0;
  std::uint32_t object = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double x = 0.0;
  double y = 0.0;
  std::string label;

  [[nodiscard]] bool has(std::uint8_t bit) const { return (mask & bit) != 0; }
};

/// Stable wire name of an event kind ("probe", "run_begin", ...).
[[nodiscard]] const char* to_string(RecorderEvent::Kind kind);
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<RecorderEvent::Kind> kind_from_string(std::string_view name);

class FlightRecorder {
 public:
  /// Quality of a phase's outputs against truth only the harness holds.
  /// Distances are Hamming distances to the hidden preference rows.
  struct PhaseEval {
    double max_disc = -1.0;   ///< -1: no evaluator installed
    double mean_disc = -1.0;
  };
  using OutputEvaluator = std::function<PhaseEval(const std::vector<bits::BitVector>&)>;

  /// Writes records to `out`, which must outlive the recorder.
  /// `stage_cap` bounds each player's staged-event buffer.
  explicit FlightRecorder(std::ostream& out, std::size_t stage_cap = std::size_t{1} << 16);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Install the harness-side output evaluator used by phase_summary.
  /// The evaluator closes over the planted matrix; the recorder (and
  /// the library code calling it) only ever sees the std::function.
  void set_output_evaluator(OutputEvaluator fn) { evaluator_ = std::move(fn); }

  // ---- serial emission (phase boundaries, scheduler rounds) --------
  // Every serial emission first drains the staged per-player events in
  // player order — that drain is what makes the stream --threads
  // invariant. Only call from serial code (no staged writers in
  // flight).

  /// Enter a run scope. The outermost scope emits run_begin and sizes
  /// the per-player stages; nested entry points (unknown_d's per-guess
  /// find_preferences, anytime's unknown_d phases) emit phase_begin —
  /// the phase-transition trail of the algorithm tower.
  void run_begin(std::string_view label, double alpha, std::size_t players,
                 std::size_t objects, std::uint64_t d = 0);
  /// Leave a run scope; rounds/probes are the scope's own deltas.
  void run_end(std::string_view label, std::uint64_t rounds, std::uint64_t probes);

  /// Per-phase summary record: cumulative cost plus output quality via
  /// the installed evaluator (disc fields stay -1 without one).
  /// Returns the evaluation so callers can reuse it (RunReport
  /// timeline) without paying for a second pass.
  PhaseEval phase_summary(std::string_view label, const std::vector<bits::BitVector>& outputs,
                          std::uint64_t cum_rounds, std::uint64_t cum_probes);

  void round_begin(std::uint64_t round);
  void round_end(std::uint64_t round, std::uint64_t active_players, std::uint64_t posts);
  /// Result (p, o) published on the billboard at the end of `round`.
  void post(std::uint64_t round, std::uint32_t player, std::uint32_t object);
  /// Scheduler-observed fault transition (kCrash/kRecover/kPostDropped/
  /// kPostDelayed), stamped with the lockstep round.
  void fault(RecorderEvent::Kind kind, std::uint64_t round, std::uint32_t player,
             std::uint64_t a = 0);
  /// Serial progress mark (zero-radius adopt steps etc.) — also a
  /// drain point for the staged buffers.
  void note(std::string_view label, std::uint64_t a, std::uint64_t b);

  // ---- parallel-safe staging (owner-write per player) --------------

  void probe(std::uint32_t player, std::uint32_t object, bool value,
             std::uint64_t invocation);
  void probe_failed(std::uint32_t player, std::uint32_t object, std::uint64_t invocation);
  void crashed(std::uint32_t player);
  void degraded(std::uint32_t player);
  void vector_post(std::uint32_t player, std::string_view channel, std::uint64_t vec_hash,
                   std::uint64_t vec_bits);

  /// Drain any remaining staged events and flush the sink.
  void flush();

  // ---- checkpoint splice -------------------------------------------

  /// Current logical clock (the `t` the next emission would get). Only
  /// meaningful at serial points; checkpoints store it so a resumed
  /// recorder continues the same timeline.
  [[nodiscard]] std::uint64_t clock();

  /// Re-enter a previously checkpointed run without emitting run_begin:
  /// restores the logical clock, opens one run scope, and sizes the
  /// per-player stages. The resumed stream, appended to the checkpoint
  /// prefix of the original log, is byte-identical to an uninterrupted
  /// run — the splice contract run_tests.sh --kill-resume verifies.
  void resume_run(std::size_t players, std::uint64_t clock);

 private:
  struct Staged {
    RecorderEvent::Kind kind;
    std::uint32_t object = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::string label;  ///< vector_post channel only
  };
  struct Stage {
    std::vector<Staged> events;
    std::uint64_t dropped = 0;
  };

  void stage(std::uint32_t player, Staged ev);
  void drain_locked() TMWIA_REQUIRES(mu_);
  void write_locked(RecorderEvent& ev) TMWIA_REQUIRES(mu_);
  void emit_serial(RecorderEvent ev) TMWIA_EXCLUDES(mu_);

  std::ostream& out_;      ///< written only under mu_ (references can't be guarded)
  std::size_t stage_cap_;  ///< immutable after construction
  OutputEvaluator evaluator_;  ///< installed/read from serial code only

  support::Mutex mu_;  ///< serializes serial emissions + the sink
  std::uint64_t clock_ TMWIA_GUARDED_BY(mu_) = 0;
  std::size_t depth_ TMWIA_GUARDED_BY(mu_) = 0;  ///< run-scope nesting
  /// Deliberately NOT guarded by mu_: stages_[p] is owner-write — only
  /// the thread running player p appends (see the header comment), and
  /// the serial drains that read it hold mu_ *and* happen at
  /// parallel_for join points with no staged writers in flight. The
  /// vector itself is resized only at those serial points.
  std::vector<Stage> stages_;
  std::atomic<std::uint64_t> unstaged_dropped_{0};  ///< events before run_begin
};

/// A flight-log file and the recorder writing it. Every harness that
/// records (tmwia_cli, the bench harness, serve tenants) goes
/// through this one owner: it opens `path`, owns the stream and the
/// recorder, and flushes when destroyed. The owner attaches recorder()
/// to the oracle and billboard of each run it records; the sink must
/// outlive their use.
class RecordSink {
 public:
  /// Throws std::runtime_error when `path` cannot be opened.
  explicit RecordSink(const std::string& path);
  ~RecordSink();

  RecordSink(const RecordSink&) = delete;
  RecordSink& operator=(const RecordSink&) = delete;

  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }

 private:
  std::unique_ptr<std::ostream> out_;
  FlightRecorder recorder_;  ///< after out_: its destructor flushes into the stream
};

/// Parse a JSONL flight log. Blank lines are skipped; any other line
/// must be one record as the recorder writes it: `t` and `ev` present,
/// known keys only, each at most once, integers as unsigned digits in
/// range (`p` and `o` below 2^32), finite `x`/`y`, nothing after the
/// closing brace. Anything else throws
/// std::runtime_error("recorder log line N: ...").
std::vector<RecorderEvent> read_recorder_log(std::istream& in);

}  // namespace tmwia::obs
