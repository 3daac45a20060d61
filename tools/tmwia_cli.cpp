// tmwia_cli — command-line driver for the library.
//
//   tmwia_cli gen  --kind=planted --n=256 --m=256 --alpha=0.5 --radius=2
//                  --seed=1 --out=world.tmw
//   tmwia_cli info --in=world.tmw
//   tmwia_cli run  --in=world.tmw --algo=unknown_d --alpha=0.5
//                  --seed=2 --out=estimates.txt
//   tmwia_cli eval --in=world.tmw --outputs=estimates.txt
//
// `gen` writes an instance file (matrix + planted structure), `run`
// executes an algorithm against it through a fresh ProbeOracle and
// writes per-player estimates, `eval` scores estimates against the
// hidden truth, `info` prints the instance's shape and community
// structure. Every subcommand is deterministic given --seed.
//
// Observability: `run` takes --metrics=FILE (final MetricsRegistry
// snapshot as one-line JSON), --record=FILE (flight-recorder event
// log, JSONL), --report=FILE (RunReport with the per-phase
// timeline as JSON) and --threads=N (global pool size; the artifacts
// are byte-identical for any N under the same seed).
//
// The flight log round-trips: `inspect` renders the phase timeline,
// per-player cost ledger and fault overlay of a recorded run, and
// `replay` re-drives a fresh billboard shadow + ProtocolAuditor from
// the events alone, cross-checking the stream against the recorded
// run_end totals.
//
// Service mode: `serve --requests=FILE` drives a long-lived
// serve::RecommendationService from a scriptable JSONL request stream
// (one flat JSON object per line; '-' reads stdin) and writes one
// response line per request to --out (default stdout). `--background`
// runs refinement epochs on a background thread (capped per tenant by
// --max-epochs) while requests are answered from the versioned cache;
// without it, refinement happens only at explicit {"op":"refine"}
// lines, which keeps the response stream deterministic.
//
// Durability: `run --checkpoint=FILE --checkpoint-every=R` (unknown_d)
// cuts a crash-consistent snapshot at guess boundaries every R rounds;
// `resume --checkpoint=FILE --in=WORLD` continues a killed run to a
// byte-identical report (DESIGN.md §11). `run --algo=mimic` drives the
// scheduler under engine::Supervisor (deadlines/backoff/quarantine);
// with --sabotage=P it demonstrates a degraded-but-complete run.
//
// Observability: `run/resume/serve --prof=FILE` writes the
// deterministic cost-attribution tree of the command's own profiler
// (--flame=FILE the flamegraph form; --prof-wall opts into wall-time
// sampling, breaking byte stability); --report's profile section is
// the same tree. `serve --telemetry=FILE --telemetry-every=N` streams
// periodic metrics/profiler snapshots as JSONL (with a Prometheus
// text exposition at FILE.prom) and `serve --slo=SPEC` arms the SLO
// watchdog (alerts land in the stream; a breach sets the exit code).
// `stats --telemetry=FILE [--follow]` summarizes or tails a stream.
//
// Exit codes (stable; asserted by tests/cli_workflow.sh):
//   0  success
//   1  unexpected runtime error
//   2  usage error (bad flag, bad subcommand, malformed spec)
//   3  replay/audit failure (protocol violation or total mismatch)
//   4  run completed degraded (quarantined players / unmet phases)
//   5  checkpoint file corrupt or unreadable
//   6  serve completed but an SLO objective was breached
#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "tmwia/baselines/baselines.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/billboard/strategies.hpp"
#include "tmwia/core/checkpoint.hpp"
#include "tmwia/core/session.hpp"
#include "tmwia/core/tmwia.hpp"
#include "tmwia/engine/supervisor.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/serialize.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/serve/protocol.hpp"
#include "tmwia/serve/service.hpp"

using namespace tmwia;

namespace {

// Documented exit codes (keep in sync with the header comment and
// DESIGN.md §11).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitAuditFailed = 3;
constexpr int kExitDegraded = 4;
constexpr int kExitCheckpointCorrupt = 5;
constexpr int kExitSloBreach = 6;

// The single source of truth for every flag tmwia_cli accepts: --help
// is rendered from this table and unknown flags are rejected against
// it, per subcommand.
const io::FlagTable& flag_table() {
  static const io::FlagTable table(
      "usage: tmwia_cli <gen|info|run|resume|eval|inspect|replay|serve|stats> [--key=value ...]  "
      "(or: tmwia_cli --help)",
      {
          {"kind", "K", "instance family: planted|multi|adversarial|markov|lowrank|uniform",
           "gen"},
          {"n", "N", "players (default 256)", "gen"},
          {"m", "M", "objects (default 256)", "gen"},
          {"alpha", "A", "community fraction (default 0.5)", "gen,run"},
          {"radius", "R", "community radius (default 0)", "gen"},
          {"types", "K", "taste types for adversarial/markov/lowrank (default 4)", "gen"},
          {"noise", "F", "per-entry noise rate for generated instances (default 0.1)",
           "gen"},
          {"seed", "S", "deterministic seed (default 1)", "gen,run"},
          {"out", "FILE", "output file (instance, estimates, or serve responses; serve "
           "defaults to stdout)", "gen,run,resume,serve"},
          {"in", "FILE", "instance file", "info,run,resume,eval"},
          {"algo", "NAME", "zero|small|large|unknown_d|anytime|mimic|solo|knn|svd", "run"},
          {"d", "D", "distance bound for --algo=small|large (default 8)", "run"},
          {"profile", "P", "parameter profile: practical|paper (default practical)", "run"},
          {"budget", "B", "round budget (anytime) / probes per player (knn)", "run"},
          {"rate", "F", "sample rate for --algo=svd (default 0.25)", "run"},
          {"rank", "K", "rank for --algo=svd (default 4)", "run"},
          {"faults", "SPEC", "fault plan, e.g. seed=S,crash=R@A-B,probe=R,kill=R", "run"},
          {"metrics", "FILE", "write final metrics snapshot JSON here", "run,resume,serve"},
          {"record", "FILE", "write the flight-recorder event log here", "run,resume"},
          {"report", "FILE", "write the RunReport (phase timeline) as JSON here",
           "run,resume,serve"},
          {"threads", "N", "global thread-pool size (0 = hardware, at most 256)",
           "run,resume,serve"},
          {"kernel", "B", "distance-kernel backend: scalar|avx2|avx512|auto "
           "(default auto; any choice computes identical results)", "run,resume,serve"},
          {"checkpoint", "FILE", "checkpoint file (written by run, read+rewritten by "
           "resume)", "run,resume"},
          {"checkpoint-every", "R", "checkpoint cadence in rounds (0 = never; resume "
           "inherits it)", "run"},
          {"strikes", "K", "mimic: exceptions before quarantine (default 3)", "run"},
          {"backoff", "R", "mimic: backoff base in rounds (default 1)", "run"},
          {"phase-rounds", "LIST", "mimic: comma-separated per-phase round budgets",
           "run"},
          {"sabotage", "P", "mimic: make player P's strategy always throw (drill)",
           "run"},
          {"outputs", "FILE", "estimates file to score", "eval"},
          {"requests", "FILE", "serve: request JSONL stream ('-' = stdin)", "serve"},
          {"background", "", "serve: refine on a background thread while answering",
           "serve"},
          {"max-epochs", "E", "serve: background epochs per tenant (default 4, 0 = until "
           "the stream ends)", "serve"},
          {"log", "FILE", "flight-recorder log to read", "inspect,replay"},
          {"prof", "FILE", "write the cost-attribution tree JSON here (deterministic "
           "logical costs)", "run,resume,serve"},
          {"flame", "FILE", "write a flamegraph-style JSON (probes axis) here",
           "run,resume,serve"},
          {"prof-wall", "", "also sample wall time into profile zones (breaks "
           "byte-stability; needs --prof or --flame)", "run,resume,serve"},
          {"telemetry", "FILE", "serve: stream telemetry JSONL here (Prometheus "
           "exposition at FILE.prom); stats: stream to read", "serve,stats"},
          {"telemetry-every", "N", "serve: requests per telemetry tick (default 64)",
           "serve"},
          {"slo", "SPEC", "serve: SLO objectives, e.g. "
           "p99_us=5000,staleness=4,degraded=0,audit=0,window=256", "serve"},
          {"follow", "", "stats: keep tailing the telemetry stream", "stats"},
          {"help", "", "show this help"},
      });
  return table;
}

int usage() {
  std::cerr << flag_table().help();
  return kExitUsage;
}

std::string require(const io::Args& args, const std::string& key) {
  const auto v = args.get(key);
  if (!v) throw std::invalid_argument("missing required --" + key);
  return *v;
}

/// Apply --threads=N (the global pool size) before the first parallel
/// phase builds the pool. N above engine::kMaxThreads is a usage error.
void apply_threads_flag(const io::Args& args) {
  const auto threads = args.get_u64("threads", 0);
  if (threads > engine::kMaxThreads) {
    throw std::invalid_argument("--threads: expected at most " +
                                std::to_string(engine::kMaxThreads) + ", got '" +
                                std::to_string(threads) + "'");
  }
  engine::set_global_threads(static_cast<std::size_t>(threads));
}

/// Apply --kernel=B (if given) before any distance work runs. Unknown
/// names and backends this CPU cannot execute are usage errors
/// (set_backend's invalid_argument maps to exit code 2).
void apply_kernel_flag(const io::Args& args) {
  const auto name = args.get("kernel");
  if (!name.has_value()) return;
  const auto backend = bits::kernels::parse_backend(*name);
  if (!backend.has_value()) {
    throw std::invalid_argument("--kernel: unknown backend '" + *name +
                                "' (expected scalar|avx2|avx512|auto)");
  }
  bits::kernels::set_backend(*backend);
}

/// One durable line of JSON (report, metrics snapshot): written through
/// the io atomic-write path so a crash never leaves a torn artifact.
void write_text_artifact(const std::string& path, std::string text) {
  text.push_back('\n');
  io::atomic_write_file(path, text);
}

/// The run's cost-attribution profiler when --prof/--flame ask for an
/// artifact, else null. Wall sampling is opt-in on top (it breaks the
/// byte-stability contract the determinism drills compare).
std::unique_ptr<obs::Profiler> make_profiler(const io::Args& args) {
  const bool want = args.get("prof").has_value() || args.get("flame").has_value();
  if (args.get_flag("prof-wall") && !want) {
    throw std::invalid_argument("--prof-wall requires --prof or --flame");
  }
  if (!want) return nullptr;
  auto prof = std::make_unique<obs::Profiler>();
  prof->set_wall_sampling(args.get_flag("prof-wall"));
  return prof;
}

/// Render the profile once the run is over, write --prof/--flame from
/// it, and return the --prof JSON ("" without a profiler): run, resume
/// and serve put that same string in their RunReport.
std::string write_profiler_artifacts(const io::Args& args, const obs::Profiler* prof) {
  if (prof == nullptr) return {};
  const auto tree = prof->report();
  const std::string json = tree.to_json(prof->wall_sampling());
  if (const auto path = args.get("prof"); path.has_value()) write_text_artifact(*path, json);
  if (const auto path = args.get("flame"); path.has_value()) {
    write_text_artifact(*path, tree.flamegraph_json(obs::Cost::kProbes));
  }
  return json;
}

/// The parameter profile `run --profile` names and `resume` reads back
/// from the checkpoint harness: practical | paper, or nullopt.
std::optional<core::Params> profile_params(const std::string& name) {
  if (name == "practical") return core::Params::practical();
  if (name == "paper") return core::Params::paper();
  return std::nullopt;
}

/// Every algo `run --algo` knows, with what it writes besides
/// estimates: the baselines (solo, knn, svd) return no RunReport, and
/// only the unknown-D driver cuts checkpoints.
struct RunAlgo {
  std::string_view name;
  bool reports;
  bool checkpoints;
};
constexpr std::array<RunAlgo, 9> kRunAlgos{{
    {"unknown_d", true, true}, {"mimic", true, false}, {"zero", true, false},
    {"small", true, false},    {"large", true, false}, {"anytime", true, false},
    {"solo", false, false},    {"knn", false, false},  {"svd", false, false},
}};

/// The --record sink `run` and `resume` both open (null without
/// --record), attached to the run's oracle and board. The recorder gets
/// the planted-truth evaluator, so phase summaries carry real
/// discrepancy numbers (the library only sees the std::function).
std::unique_ptr<obs::RecordSink> open_record_sink(const io::Args& args,
                                                  const matrix::Instance& inst,
                                                  billboard::ProbeOracle& oracle,
                                                  billboard::Billboard& board) {
  const auto path = args.get("record");
  if (!path.has_value()) return nullptr;
  auto sink = std::make_unique<obs::RecordSink>(*path);
  sink->recorder().set_output_evaluator(make_truth_evaluator(inst.matrix));
  oracle.set_recorder(&sink->recorder());
  board.set_recorder(&sink->recorder());
  return sink;
}

/// Serial-point metrics export shared by `run` and `resume`: the
/// run's oracle totals become the `oracle.*` gauges.
void write_metrics_snapshot(const std::string& path, const billboard::ProbeOracle& oracle) {
  write_text_artifact(path, snapshot_with_oracle_totals(oracle.total_invocations(),
                                                        oracle.total_charged(),
                                                        oracle.max_invocations())
                                .to_json());
}

int cmd_gen(const io::Args& args) {
  const auto kind = require(args, "kind");
  const auto n = static_cast<std::size_t>(args.get_u64("n", 256));
  const auto m = static_cast<std::size_t>(args.get_u64("m", 256));
  // No command can load an instance without players or objects.
  if (n == 0) throw std::invalid_argument("--n must be at least 1");
  if (m == 0) throw std::invalid_argument("--m must be at least 1");
  const double alpha = args.get_double("alpha", 0.5);
  const auto radius = static_cast<std::size_t>(args.get_u64("radius", 0));
  const auto types = static_cast<std::size_t>(args.get_u64("types", 4));
  const double noise = args.get_double("noise", 0.1);
  rng::Rng rng(args.get_u64("seed", 1));

  matrix::Instance inst;
  if (kind == "planted") {
    inst = matrix::planted_community(n, m, {alpha, radius}, rng);
  } else if (kind == "multi") {
    inst = matrix::planted_communities(
        n, m, {{alpha / 2, radius}, {alpha / 2, radius * 2}}, rng);
  } else if (kind == "adversarial") {
    inst = matrix::adversarial_diversity(n, m, types, radius, noise, rng);
  } else if (kind == "markov") {
    inst = matrix::markov_type_model(n, m, types, noise, rng);
  } else if (kind == "lowrank") {
    inst = matrix::low_rank_model(n, m, types, noise, rng);
  } else if (kind == "uniform") {
    inst = matrix::uniform_random(n, m, rng);
  } else {
    throw std::invalid_argument("unknown --kind=" + kind);
  }

  io::save_instance_file(inst, require(args, "out"));
  std::cout << "wrote " << kind << " instance: " << n << " players x " << m
            << " objects, " << inst.communities.size() << " communities\n";
  return 0;
}

int cmd_info(const io::Args& args) {
  const auto inst = io::load_instance_file(require(args, "in"));
  std::cout << "players: " << inst.matrix.players() << "\nobjects: "
            << inst.matrix.objects() << "\ncommunities: " << inst.communities.size()
            << '\n';
  for (std::size_t c = 0; c < inst.communities.size(); ++c) {
    const auto& ids = inst.communities[c];
    std::cout << "  community " << c << ": " << ids.size() << " players, diameter "
              << inst.matrix.subset_diameter(ids) << '\n';
  }
  return 0;
}

/// Failure drill for the supervisor path: every probe decision throws,
/// so the player strikes out and is quarantined instead of aborting
/// the run (--sabotage=P).
class SabotagedStrategy final : public billboard::PlayerStrategy {
 public:
  explicit SabotagedStrategy(std::unique_ptr<billboard::PlayerStrategy> inner)
      : inner_(std::move(inner)) {}

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView&) override {
    throw std::runtime_error("sabotaged strategy");
  }
  void on_result(billboard::ObjectId, bool) override {}
  [[nodiscard]] bool done() const override { return inner_->done(); }

 private:
  std::unique_ptr<billboard::PlayerStrategy> inner_;
};

int cmd_run(const io::Args& args) {
  const auto inst = io::load_instance_file(require(args, "in"));
  const auto algo = args.get("algo").value_or("unknown_d");
  const double alpha = args.get_double("alpha", 0.5);
  const auto seed = args.get_u64("seed", 1);
  const auto profile = args.get("profile").value_or("practical");
  const auto profile_set = profile_params(profile);
  if (!profile_set.has_value()) {
    throw std::invalid_argument("unknown --profile=" + profile + " (practical|paper)");
  }
  const auto& params = *profile_set;
  // An unknown algo, or a flag asking an algo for a file it does not
  // write, is refused here, before a sink opens its file or the algo
  // runs.
  const auto known = std::find_if(kRunAlgos.begin(), kRunAlgos.end(),
                                  [&algo](const RunAlgo& a) { return a.name == algo; });
  if (known == kRunAlgos.end()) throw std::invalid_argument("unknown --algo=" + algo);
  if (!known->checkpoints && (args.get("checkpoint") || args.get("checkpoint-every"))) {
    throw std::invalid_argument("--checkpoint: --algo=" + algo + " cuts no checkpoints");
  }
  if (!known->reports && args.get("report")) {
    throw std::invalid_argument("--report: --algo=" + algo + " produces no RunReport");
  }

  // Observability sinks. The thread count must be requested before the
  // first parallel phase constructs the global pool, and the kernel
  // backend before the first distance call.
  apply_threads_flag(args);
  apply_kernel_flag(args);
  const auto metrics_path = args.get("metrics");
  if (metrics_path.has_value()) obs::MetricsRegistry::global().set_enabled(true);
  const auto profiler = make_profiler(args);
  const obs::ProfileScope profile_scope(profiler.get());

  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  const auto record = open_record_sink(args, inst, oracle, board);
  std::vector<bits::BitVector> outputs;
  std::optional<core::RunReport> report;

  // Optional fault injection: a seeded declarative plan (see
  // faults::FaultPlan::parse for the grammar). The run then ends with a
  // FaultReport of everything that fired.
  std::unique_ptr<faults::FaultInjector> injector;
  if (const auto spec = args.get("faults"); spec.has_value()) {
    const auto plan = faults::FaultPlan::parse(*spec);
    injector = std::make_unique<faults::FaultInjector>(plan, inst.matrix.players());
    oracle.set_fault_injector(injector.get());
  }

  if (algo == "unknown_d") {
    // Optional durability: cut a crash-consistent snapshot at guess
    // boundaries every --checkpoint-every rounds. The harness metadata
    // stored in the file is everything `resume` needs besides the
    // instance itself (which travels by --in).
    const auto ckpt_path = args.get("checkpoint");
    const auto ckpt_every = args.get_u64("checkpoint-every", 0);
    if (ckpt_path.has_value() && ckpt_every == 0) {
      throw std::invalid_argument("--checkpoint requires --checkpoint-every");
    }
    core::CheckpointPolicy policy;
    policy.every_rounds = ckpt_every;
    std::vector<std::pair<std::string, std::string>> harness;
    if (const auto spec = args.get("faults"); spec.has_value()) {
      harness.emplace_back("faults", *spec);
    }
    harness.emplace_back("profile", profile);
    harness.emplace_back("checkpoint_every", std::to_string(ckpt_every));
    if (ckpt_path.has_value()) {
      policy.sink = [&ckpt_path, &harness](const core::RunCheckpoint& ck) {
        core::RunCheckpoint with_meta = ck;
        with_meta.harness = harness;
        core::save_run_checkpoint(*ckpt_path, with_meta);
      };
    }
    report = core::find_preferences_unknown_d(oracle, &board, alpha, params,
                                              rng::Rng(seed), policy);
  } else if (algo == "mimic") {
    // Supervised scheduler execution of the mimic heuristic: per-phase
    // round deadlines, strike/backoff/quarantine on throwing
    // strategies, and a degraded (never aborted) report.
    engine::SupervisorConfig scfg;
    scfg.max_strikes = static_cast<std::size_t>(args.get_u64("strikes", 3));
    scfg.backoff_base = static_cast<std::size_t>(args.get_u64("backoff", 1));
    const auto n = inst.matrix.players();
    const auto m = inst.matrix.objects();

    std::vector<engine::PhaseSpec> phase_specs;
    if (const auto list = args.get("phase-rounds"); list.has_value()) {
      std::istringstream ls(*list);
      std::string item;
      while (std::getline(ls, item, ',')) {
        std::size_t budget = 0;
        const char* end = item.data() + item.size();
        const auto [last, ec] = std::from_chars(item.data(), end, budget);
        if (ec != std::errc{} || last != end || budget == 0) {
          throw std::invalid_argument("bad --phase-rounds entry '" + item + "'");
        }
        phase_specs.push_back({"phase:" + std::to_string(phase_specs.size()), budget});
      }
    }
    if (phase_specs.empty()) phase_specs.push_back({"phase:0", m * 4});

    const rng::Rng root(seed);
    std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
    std::vector<const billboard::MimicStrategy*> estimates(n, nullptr);
    strategies.reserve(n);
    for (matrix::PlayerId p = 0; p < n; ++p) {
      auto s = std::make_unique<billboard::MimicStrategy>(
          p, m, /*sample_budget=*/std::max<std::size_t>(m / 8, 4), /*spot_checks=*/8,
          root.split(0x31C, p), /*patience=*/16);
      estimates[p] = s.get();
      strategies.push_back(std::move(s));
    }
    if (const auto sab = args.get("sabotage"); sab.has_value()) {
      const auto p = static_cast<std::size_t>(args.get_u64("sabotage", 0));
      if (p >= n) throw std::invalid_argument("--sabotage player out of range");
      strategies[p] = std::make_unique<SabotagedStrategy>(std::move(strategies[p]));
    }

    engine::Supervisor supervisor(oracle, scfg);
    const auto sres = supervisor.run(strategies, phase_specs);

    core::RunReport rep;
    rep.algo = core::RunReport::Algo::kSupervised;
    rep.rounds = oracle.max_invocations();
    rep.total_probes = oracle.total_invocations();
    rep.outputs.reserve(n);
    for (matrix::PlayerId p = 0; p < n; ++p) rep.outputs.push_back(estimates[p]->estimate());
    for (const auto& ph : sres.phases) {
      rep.timeline.push_back({ph.label, ph.cum_rounds, ph.cum_probes, -1.0, -1.0});
    }
    rep.degraded.quarantined = sres.quarantined;
    rep.degraded.unmet_phases = sres.unmet_phases;
    if (injector != nullptr && !sres.quarantined.empty()) {
      // Quarantined players were flagged as orphans: re-adopt their
      // outputs from the most-supported survivors (Section 6.1 RSelect).
      std::vector<matrix::PlayerId> ids(n);
      for (matrix::PlayerId p = 0; p < n; ++p) ids[p] = p;
      core::rescue_orphans(oracle, rep.outputs, ids, params, root.split(0x0FA9));
    }
    std::cout << "supervisor: " << sres.phases.size() << " phases, " << sres.strikes
              << " strikes, " << sres.benched_rounds << " benched rounds, "
              << sres.quarantined.size() << " quarantined\n";
    report = std::move(rep);
  } else if (algo == "zero" || algo == "small" || algo == "large") {
    const auto d = static_cast<std::size_t>(args.get_u64("d", algo == "zero" ? 0 : 8));
    report = core::find_preferences(oracle, &board, alpha, d, params, rng::Rng(seed));
  } else if (algo == "anytime") {
    const auto budget = args.get_u64("budget", inst.matrix.objects() * 4);
    report = core::anytime(oracle, &board, budget, params, rng::Rng(seed));
  } else if (algo == "solo") {
    outputs = baselines::solo_probing(oracle).outputs;
  } else if (algo == "knn") {
    baselines::KnnParams kp;
    kp.probes_per_player =
        static_cast<std::size_t>(args.get_u64("budget", inst.matrix.objects() / 4));
    outputs = baselines::sampled_knn(oracle, kp, rng::Rng(seed)).outputs;
  } else {  // svd: kRunAlgos admits no other algo
    baselines::SvdParams sp;
    sp.sample_rate = args.get_double("rate", 0.25);
    sp.rank = static_cast<std::size_t>(args.get_u64("rank", 4));
    outputs = baselines::svd_recommender(oracle, sp, rng::Rng(seed)).outputs;
  }
  const auto report_path = args.get("report");
  const std::string profile_json = write_profiler_artifacts(args, profiler.get());
  bool degraded = false;
  if (report.has_value()) {
    report->profile_json = profile_json;
    if (report_path.has_value()) write_text_artifact(*report_path, report->to_json());
    degraded = !report->degraded.empty();
    // The report JSON is already on disk; it never embeds the
    // estimates, so the remaining consumer is save_outputs below.
    outputs = std::move(report->outputs);
  }

  {
    std::ostringstream os;
    io::save_outputs(outputs, os);
    io::atomic_write_file(require(args, "out"), os.str());
  }

  if (metrics_path.has_value()) write_metrics_snapshot(*metrics_path, oracle);

  std::cout << "algo: " << algo << "\nrounds (max probes/player): "
            << oracle.max_invocations() << "\ntotal probes: " << oracle.total_invocations()
            << "\nsolo cost would be: " << inst.matrix.objects() << " rounds\n";
  if (injector != nullptr) {
    std::cout << "fault report:\n" << injector->report().to_string();
  }
  if (degraded) {
    std::cout << "run DEGRADED (see report's degraded section)\n";
    return kExitDegraded;
  }
  return kExitOk;
}

int cmd_resume(const io::Args& args) {
  const auto ckpt = core::load_run_checkpoint(require(args, "checkpoint"));
  // The harness section is what `run` wrote beside the state; a value
  // it could not have written means the file is corrupt, and fails
  // before any state is built.
  const auto bad_harness = [](const std::string& key, const std::string& value,
                              const std::string& why) {
    return io::CheckpointError("checkpoint harness: " + key + "='" + value + "': " + why);
  };
  const auto profile = ckpt.harness_value("profile");
  const auto profile_set = profile_params(profile);
  if (!profile_set.has_value()) throw bad_harness("profile", profile, "not practical|paper");
  const auto& params = *profile_set;
  core::CheckpointPolicy policy;
  const auto every = ckpt.harness_value("checkpoint_every");
  const char* every_end = every.data() + every.size();
  const auto [every_last, every_ec] =
      std::from_chars(every.data(), every_end, policy.every_rounds);
  if (every_ec != std::errc{} || every_last != every_end) {
    throw bad_harness("checkpoint_every", every, "not a round count");
  }
  std::optional<faults::FaultPlan> plan;
  if (const auto spec = ckpt.harness_value("faults"); !spec.empty()) {
    try {
      plan = faults::FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
      throw bad_harness("faults", spec, e.what());
    }
  }
  const auto inst = io::load_instance_file(require(args, "in"));

  apply_threads_flag(args);
  apply_kernel_flag(args);
  const auto metrics_path = args.get("metrics");
  if (metrics_path.has_value()) obs::MetricsRegistry::global().set_enabled(true);
  const auto profiler = make_profiler(args);
  const obs::ProfileScope profile_scope(profiler.get());

  billboard::ProbeOracle oracle(inst.matrix);
  billboard::Billboard board;
  const auto record = open_record_sink(args, inst, oracle, board);
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan.has_value()) {
    // The kill drill (if any) already fired in the run being resumed;
    // re-arming it would kill the resumed run at the same round.
    plan->kill_at_round = faults::kNever;
    injector = std::make_unique<faults::FaultInjector>(*plan, inst.matrix.players());
    oracle.set_fault_injector(injector.get());
  }

  // Keep cutting checkpoints on the run's original cadence, into the
  // same file — so a resumed run is itself resumable, and its ckpt
  // notes line up with an uninterrupted reference run.
  const auto ckpt_path = require(args, "checkpoint");
  const auto harness = ckpt.harness;
  policy.sink = [&ckpt_path, &harness](const core::RunCheckpoint& ck) {
    core::RunCheckpoint with_meta = ck;
    with_meta.harness = harness;
    core::save_run_checkpoint(ckpt_path, with_meta);
  };

  auto report = core::resume_unknown_d(oracle, &board, params, ckpt, policy);
  const bool degraded = !report.degraded.empty();
  report.profile_json = write_profiler_artifacts(args, profiler.get());

  if (const auto report_path = args.get("report"); report_path.has_value()) {
    write_text_artifact(*report_path, report.to_json());
  }
  {
    std::ostringstream os;
    io::save_outputs(report.outputs, os);
    io::atomic_write_file(require(args, "out"), os.str());
  }
  if (metrics_path.has_value()) write_metrics_snapshot(*metrics_path, oracle);

  std::cout << "resumed from checkpoint seq " << ckpt.seq << " (cut at "
            << ckpt.cum_rounds << " rounds)\nrounds (max probes/player): "
            << oracle.max_invocations()
            << "\ntotal probes: " << oracle.total_invocations() << '\n';
  if (injector != nullptr) {
    std::cout << "fault report:\n" << injector->report().to_string();
  }
  if (degraded) {
    std::cout << "run DEGRADED (see report's degraded section)\n";
    return kExitDegraded;
  }
  return kExitOk;
}

int cmd_eval(const io::Args& args) {
  const auto inst = io::load_instance_file(require(args, "in"));
  std::ifstream is(require(args, "outputs"));
  if (!is) throw std::runtime_error("cannot open outputs file");
  const auto outputs = io::load_outputs(is, inst.matrix.objects());
  if (outputs.size() != inst.matrix.players()) {
    throw std::runtime_error("outputs/player count mismatch");
  }

  io::Table table("evaluation", {{"community"}, {"players"}, {"diameter D"}, {"worst_err"},
                                 {"stretch", 2}, {"mean_err", 1}});
  for (std::size_t c = 0; c < inst.communities.size(); ++c) {
    const auto& ids = inst.communities[c];
    if (ids.empty()) continue;
    std::size_t total = 0;
    for (auto p : ids) total += outputs[p].hamming(inst.matrix.row(p));
    table.add_row({static_cast<long long>(c), static_cast<long long>(ids.size()),
                   static_cast<long long>(inst.matrix.subset_diameter(ids)),
                   static_cast<long long>(inst.matrix.discrepancy(outputs, ids)),
                   inst.matrix.stretch(outputs, ids),
                   static_cast<double>(total) / static_cast<double>(ids.size())});
  }
  table.print(std::cout);

  std::size_t total = 0;
  for (matrix::PlayerId p = 0; p < inst.matrix.players(); ++p) {
    total += outputs[p].hamming(inst.matrix.row(p));
  }
  std::cout << "overall mean error: "
            << static_cast<double>(total) / static_cast<double>(inst.matrix.players())
            << " / " << inst.matrix.objects() << " objects\n";
  return 0;
}

std::vector<obs::RecorderEvent> load_log(const io::Args& args) {
  const auto path = require(args, "log");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open --log file '" + path + "'");
  return obs::read_recorder_log(in);
}

/// Per-player charges accumulated from the event stream.
struct PlayerLedger {
  std::uint64_t attempts = 0;  ///< probe + probe_failed (charged)
  std::uint64_t failed = 0;
  std::uint64_t posts = 0;  ///< result + vector posts
};

int cmd_inspect(const io::Args& args) {
  const auto events = load_log(args);
  std::cout << "events: " << events.size() << " (jsonl)\n\n";

  // Run/phase timeline: scope transitions plus every phase summary.
  io::Table timeline("run timeline",
                     {{"scope"}, {"event"}, {"players"}, {"cum_rounds"}, {"cum_probes"},
                      {"max_disc", 1}, {"mean_disc", 2}});
  std::vector<std::string> stack;
  std::uint64_t rounds_seen = 0;
  std::uint64_t result_posts = 0;
  std::vector<PlayerLedger> ledger;
  std::map<std::string, std::uint64_t> faults;
  std::vector<std::uint32_t> crashed_players;
  std::uint64_t dropped_events = 0;

  auto at_player = [&ledger](std::uint32_t p) -> PlayerLedger& {
    if (p >= ledger.size()) ledger.resize(p + 1);
    return ledger[p];
  };
  auto indent = [&stack] {
    return std::string(2 * (stack.empty() ? 0 : stack.size() - 1), ' ') +
           (stack.empty() ? std::string("?") : stack.back());
  };

  using Kind = obs::RecorderEvent::Kind;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case Kind::kRunBegin:
      case Kind::kPhaseBegin:
        stack.push_back(ev.label);
        timeline.add_row({indent(), std::string(ev.kind == Kind::kRunBegin
                                                    ? "begin"
                                                    : "phase"),
                          static_cast<long long>(ev.a), std::string("-"), std::string("-"),
                          std::string("-"), std::string("-")});
        break;
      case Kind::kRunEnd:
      case Kind::kPhaseEnd:
        timeline.add_row({indent(), std::string("end"), std::string("-"),
                          static_cast<long long>(ev.a), static_cast<long long>(ev.b),
                          std::string("-"), std::string("-")});
        if (!stack.empty()) stack.pop_back();
        break;
      case Kind::kPhaseSummary: {
        std::vector<io::Cell> row{indent() + "/" + ev.label, std::string("summary"),
                                  static_cast<long long>(ev.player),
                                  static_cast<long long>(ev.a),
                                  static_cast<long long>(ev.b)};
        if (ev.has(obs::RecorderEvent::kHasX)) {
          row.emplace_back(ev.x);
          row.emplace_back(ev.y);
        } else {
          row.emplace_back(std::string("-"));
          row.emplace_back(std::string("-"));
        }
        timeline.add_row(std::move(row));
        break;
      }
      case Kind::kRoundBegin:
        ++rounds_seen;
        break;
      case Kind::kProbe:
        ++at_player(ev.player).attempts;
        break;
      case Kind::kProbeFailed: {
        auto& pl = at_player(ev.player);
        ++pl.attempts;
        ++pl.failed;
        break;
      }
      case Kind::kPost:
        ++at_player(ev.player).posts;
        ++result_posts;
        break;
      case Kind::kVectorPost:
        ++at_player(ev.player).posts;
        break;
      case Kind::kCrash:
        ++faults["crash"];
        crashed_players.push_back(ev.player);
        break;
      case Kind::kRecover:
        ++faults["recover"];
        break;
      case Kind::kDegraded:
        ++faults["degraded"];
        break;
      case Kind::kPostDropped:
        ++faults["post_dropped"];
        break;
      case Kind::kPostDelayed:
        ++faults["post_delayed"];
        break;
      case Kind::kOverflow:
        dropped_events += ev.a;
        break;
      default:
        break;
    }
  }
  timeline.print(std::cout);
  if (rounds_seen != 0) {
    std::cout << "\nscheduler rounds: " << rounds_seen
              << ", result posts: " << result_posts << '\n';
  }
  if (dropped_events != 0) {
    std::cout << "WARNING: " << dropped_events
              << " events were dropped at record time (stage overflow)\n";
  }

  // Per-player cost ledger: totals plus the most expensive players.
  std::uint64_t total_attempts = 0;
  std::uint64_t max_attempts = 0;
  for (const auto& pl : ledger) {
    total_attempts += pl.attempts;
    max_attempts = std::max(max_attempts, pl.attempts);
  }
  std::cout << "\nprobe cost: " << total_attempts << " charged attempts, max/player "
            << max_attempts << '\n';
  std::vector<std::uint32_t> by_cost(ledger.size());
  for (std::uint32_t p = 0; p < ledger.size(); ++p) by_cost[p] = p;
  std::stable_sort(by_cost.begin(), by_cost.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ledger[a].attempts > ledger[b].attempts;
  });
  io::Table costs("top players by probe cost",
                  {{"player"}, {"attempts"}, {"failed"}, {"posts"}});
  for (std::size_t i = 0; i < std::min<std::size_t>(by_cost.size(), 10); ++i) {
    const auto p = by_cost[i];
    costs.add_row({static_cast<long long>(p), static_cast<long long>(ledger[p].attempts),
                   static_cast<long long>(ledger[p].failed),
                   static_cast<long long>(ledger[p].posts)});
  }
  costs.print(std::cout);

  // Fault overlay.
  if (!faults.empty()) {
    io::Table overlay("fault overlay", {{"fault"}, {"events"}});
    for (const auto& [name, count] : faults) {
      overlay.add_row({name, static_cast<long long>(count)});
    }
    overlay.print(std::cout);
    std::sort(crashed_players.begin(), crashed_players.end());
    crashed_players.erase(std::unique(crashed_players.begin(), crashed_players.end()),
                          crashed_players.end());
    if (!crashed_players.empty()) {
      std::cout << "crashed players (" << crashed_players.size() << "):";
      for (std::size_t i = 0; i < std::min<std::size_t>(crashed_players.size(), 16); ++i) {
        std::cout << ' ' << crashed_players[i];
      }
      if (crashed_players.size() > 16) std::cout << " ...";
      std::cout << '\n';
    }
  } else {
    std::cout << "no fault events recorded\n";
  }
  return 0;
}

int cmd_replay(const io::Args& args) {
  const auto events = load_log(args);
  using Kind = obs::RecorderEvent::Kind;

  // Depth-0 run scopes; nested phase markers stay inside their segment.
  struct Segment {
    std::size_t begin = 0;  ///< index of the run_begin event
    std::size_t end = 0;    ///< index of the matching run_end event
  };
  std::vector<Segment> segments;
  std::size_t open_begin = 0;
  bool open = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto kind = events[i].kind;
    if (kind == Kind::kRunBegin) {
      if (open) throw std::runtime_error("replay: nested run_begin");
      open_begin = i;
      open = true;
    } else if (kind == Kind::kRunEnd) {
      if (!open) throw std::runtime_error("replay: run_end without run_begin");
      segments.push_back({open_begin, i});
      open = false;
    }
  }
  if (open) throw std::runtime_error("replay: unterminated run scope");
  if (segments.empty()) throw std::runtime_error("replay: no run scopes in log");

  io::Table table("replay", {{"run"}, {"events"}, {"probes"}, {"rounds"}, {"posts"},
                             {"channels"}, {"violations"}});
  bool ok = true;
  for (const auto& seg : segments) {
    const auto& begin = events[seg.begin];
    const auto& end = events[seg.end];

    // The events replayed below must carry the ids they are replayed
    // by, and every player and object an event names must lie inside
    // the shape its run_begin declares. The shadow is sized from the
    // largest ids the events use, so a header alone allocates nothing.
    const auto reject = [](const obs::RecorderEvent& ev, const std::string& why) {
      return std::runtime_error("replay: event t=" + std::to_string(ev.t) + " (" +
                                obs::to_string(ev.kind) + ") " + why);
    };
    const auto id_bound = [&](const obs::RecorderEvent& ev, const std::string& what,
                              std::uint64_t id, std::uint64_t declared) {
      if (id >= declared) {
        throw reject(ev, "names " + what + " " + std::to_string(id) + ", but its run declares " +
                             std::to_string(declared) + " " + what + "s");
      }
      return static_cast<std::size_t>(id) + 1;
    };
    std::size_t players = 0;
    std::size_t objects = 0;
    for (std::size_t i = seg.begin + 1; i < seg.end; ++i) {
      const auto& ev = events[i];
      const bool needs_object = ev.kind == Kind::kProbe || ev.kind == Kind::kPost;
      const bool needs_player = needs_object || ev.kind == Kind::kProbeFailed;
      if ((needs_player && !ev.has(obs::RecorderEvent::kHasPlayer)) ||
          (needs_object && !ev.has(obs::RecorderEvent::kHasObject))) {
        throw reject(ev, "lacks the \"p\"/\"o\" replay reads");
      }
      // phase_summary's `p` counts outputs; it names no player.
      if (ev.has(obs::RecorderEvent::kHasPlayer) && ev.kind != Kind::kPhaseSummary) {
        players = std::max(players, id_bound(ev, "player", ev.player, begin.a));
      }
      if (ev.has(obs::RecorderEvent::kHasObject)) {
        objects = std::max(objects, id_bound(ev, "object", ev.object, begin.b));
      }
    }

    // Re-drive a fresh billboard shadow and auditor from events alone:
    // posted results as per-player bitmaps, vector posts per channel,
    // every charged attempt through the auditor's A1-A4 ledgers.
    billboard::ProtocolAuditor auditor(players, objects);
    std::vector<bits::BitVector> posted(players, bits::BitVector(objects));
    std::map<std::string, std::uint64_t> channels;
    std::uint64_t charged = 0;
    std::uint64_t result_posts = 0;
    bool in_round = false;

    for (std::size_t i = seg.begin + 1; i < seg.end; ++i) {
      const auto& ev = events[i];
      switch (ev.kind) {
        case Kind::kRoundBegin:
          auditor.begin_round(ev.round);
          in_round = true;
          break;
        case Kind::kRoundEnd:
          if (in_round) auditor.end_round();
          in_round = false;
          break;
        case Kind::kProbe:
          auditor.on_probe_attempt(ev.player);
          auditor.on_probe(ev.player, ev.object);
          ++charged;
          break;
        case Kind::kProbeFailed:
          auditor.on_probe_attempt(ev.player);
          ++charged;
          break;
        case Kind::kPost:
          auditor.on_post(ev.player, ev.object);
          posted[ev.player].set(ev.object, true);
          ++result_posts;
          break;
        case Kind::kVectorPost:
          ++channels[ev.label];
          break;
        default:
          break;
      }
    }
    if (in_round) auditor.end_round();

    // A4 cross-check: the recorded run_end totals must reconcile with
    // the attempts reconstructed from the stream (recorded as a
    // violation, not a throw, so everything lands in one report).
    auditor.verify_totals(end.b, end.a);
    const auto report = auditor.report();

    std::uint64_t posted_bits = 0;
    for (const auto& row : posted) posted_bits += row.count_ones();
    if (posted_bits != result_posts) {
      // A player's posted set is a set: duplicate posts collapse.
      std::cout << "note: " << (result_posts - posted_bits)
                << " re-posted results collapsed in the billboard shadow\n";
    }

    table.add_row({begin.label, static_cast<long long>(seg.end - seg.begin + 1),
                   static_cast<long long>(charged), static_cast<long long>(end.a),
                   static_cast<long long>(result_posts),
                   static_cast<long long>(channels.size()),
                   static_cast<long long>(report.violations.size())});
    if (!report.clean()) {
      ok = false;
      for (const auto& v : report.violations) {
        std::cout << "VIOLATION [" << begin.label << "] "
                  << billboard::to_string(v.kind) << " player=" << v.player
                  << " object=" << v.object << " round=" << v.round << ": " << v.detail
                  << '\n';
      }
    }
  }
  table.print(std::cout);
  std::cout << (ok ? "replay clean: billboard state reconstructed, totals verified\n"
                   : "replay FAILED\n");
  return ok ? kExitOk : kExitAuditFailed;
}

}  // namespace

int cmd_serve(const io::Args& args) {
  // Thread count before the first parallel phase, kernel backend
  // before the first distance call — same ordering contract as `run`.
  apply_threads_flag(args);
  apply_kernel_flag(args);
  const auto metrics_path = args.get("metrics");
  if (metrics_path.has_value()) obs::MetricsRegistry::global().set_enabled(true);
  const auto profiler = make_profiler(args);
  const obs::ProfileScope profile_scope(profiler.get());

  // Live-observability stack, outermost first: optional SLO watchdog,
  // optional telemetry exporter over it. The exporter snapshots the
  // metrics registry, so --telemetry implies enabling it (otherwise
  // every snapshot would be empty).
  const auto telemetry_path = args.get("telemetry");
  if (!telemetry_path.has_value() && args.get("telemetry-every").has_value()) {
    throw std::invalid_argument("--telemetry-every requires --telemetry");
  }
  std::unique_ptr<obs::SloWatchdog> watchdog;
  if (const auto spec = args.get("slo"); spec.has_value()) {
    auto parsed = obs::SloSpec::parse(*spec);
    if (!parsed.any()) {
      throw std::invalid_argument("--slo: spec enables no objective");
    }
    watchdog = std::make_unique<obs::SloWatchdog>(parsed);
  }
  std::unique_ptr<obs::TelemetryExporter> telemetry;
  if (telemetry_path.has_value()) {
    obs::MetricsRegistry::global().set_enabled(true);
    obs::TelemetryConfig tcfg;
    tcfg.path = *telemetry_path;
    tcfg.every = static_cast<std::size_t>(args.get_u64("telemetry-every", 64));
    if (tcfg.every == 0) throw std::invalid_argument("--telemetry-every must be >= 1");
    telemetry = std::make_unique<obs::TelemetryExporter>(
        tcfg, obs::MetricsRegistry::global(), profiler.get(), watchdog.get());
  }

  const auto req_path = require(args, "requests");
  std::ifstream req_file;
  std::istream* in = &std::cin;
  if (req_path != "-") {
    req_file.open(req_path);
    if (!req_file) throw std::runtime_error("cannot open --requests file '" + req_path + "'");
    in = &req_file;
  }
  // tmwia-lint: allow(durable-write) streaming response sink, not a one-shot artifact
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (const auto out_path = args.get("out"); out_path.has_value()) {
    out_file.open(*out_path);
    if (!out_file) throw std::runtime_error("cannot open --out file '" + *out_path + "'");
    out = &out_file;
  }

  serve::RecommendationService service;
  service.set_telemetry(telemetry.get());
  service.set_watchdog(watchdog.get());
  service.set_profiler(profiler.get());
  const bool background = args.get_flag("background");
  const auto max_epochs = args.get_u64("max-epochs", 4);
  bool any_failed = false;
  std::string line;
  while (std::getline(*in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    serve::Response resp;
    try {
      resp = service.handle(serve::parse_request(line));
    } catch (const std::exception& ex) {
      resp.op = "parse";
      resp.ok = false;
      resp.error = ex.what();
    }
    if (!resp.ok) any_failed = true;
    *out << resp.to_json() << '\n';
    // The refiner needs at least one tenant to round-robin over, so it
    // starts lazily after the first successful add_tenant.
    if (background && !service.refiner_running() && !service.tenant_names().empty()) {
      service.start_refiner(max_epochs);
    }
  }
  // Let the in-flight epoch finish, then join; remaining epochs are
  // abandoned (the stream is done, nobody would read the fresher cache).
  service.stop_refiner();

  // Quiescent tail: feed the cumulative audit ledgers to the watchdog
  // (the audit objective is end-of-session by nature), export the
  // tenants' summed oracle totals as the `oracle.*` gauges, close the
  // telemetry stream (final tick + slo_report record), then write the
  // one-shot artifacts.
  if (watchdog != nullptr) {
    for (const auto& name : service.tenant_names()) {
      const auto audit = service.tenant(name)->audit();
      watchdog->observe_audit_violations(audit.violations.size());
    }
  }
  const auto totals = service.oracle_totals();
  obs::Snapshot metrics;
  if (obs::MetricsRegistry::global().enabled()) {
    metrics = snapshot_with_oracle_totals(totals.invocations, totals.charged,
                                          totals.max_invocations);
  }
  if (telemetry != nullptr) {
    telemetry->finish();
  } else if (watchdog != nullptr) {
    // No exporter to drive the tick cadence: evaluate once at the end
    // so --slo still judges the session.
    (void)watchdog->evaluate(0);
  }
  if (metrics_path.has_value()) write_text_artifact(*metrics_path, metrics.to_json());
  const std::string profile_json = write_profiler_artifacts(args, profiler.get());
  if (const auto report_path = args.get("report"); report_path.has_value()) {
    core::RunReport rep;
    rep.algo = core::RunReport::Algo::kServe;
    rep.total_probes = totals.invocations;
    rep.rounds = totals.max_invocations;
    rep.profile_json = profile_json;
    if (watchdog != nullptr) rep.slo_json = watchdog->report().to_json();
    write_text_artifact(*report_path, rep.to_json());
  }

  if (any_failed) return kExitUsage;
  if (watchdog != nullptr && watchdog->breached()) {
    std::cerr << "serve: SLO breached: " << watchdog->report().to_json() << '\n';
    return kExitSloBreach;
  }
  if (service.any_degraded()) return kExitDegraded;
  return kExitOk;
}

// ---------------------------------------------------------------- stats

// Classify one telemetry JSONL line by its leading "kind" field. The
// stream writes `{"kind":"snapshot",...}` etc. with the kind first, so
// a prefix check is enough — no JSON parser needed for a tail loop.
std::string record_kind(const std::string& line) {
  const std::string prefix = "{\"kind\":\"";
  if (line.rfind(prefix, 0) != 0) return "?";
  const auto end = line.find('"', prefix.size());
  if (end == std::string::npos) return "?";
  return line.substr(prefix.size(), end - prefix.size());
}

int cmd_stats(const io::Args& args) {
  const auto path = require(args, "telemetry");
  const bool follow = args.get_flag("follow");

  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open --telemetry file: " + path);

  std::map<std::string, std::uint64_t> counts;
  std::string last_snapshot;
  std::string line;
  // One pass over what exists now; in --follow mode keep polling for
  // appended lines (clear the eof latch, re-read from where we stopped).
  for (;;) {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::string kind = record_kind(line);
      ++counts[kind];
      if (kind == "snapshot") {
        last_snapshot = line;
      } else if (follow) {
        // Alerts and the final verdict are the interesting tail events.
        std::cout << line << '\n' << std::flush;
      }
      if (kind == "slo_report" && follow) {
        // The writer emits slo_report exactly once, on finish(): the
        // stream is complete, stop tailing.
        std::cout << "stats: stream finished\n";
        return kExitOk;
      }
    }
    if (!follow) break;
    in.clear();  // drop eofbit so the next getline sees appended data
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "records:";
  for (const auto& [kind, n] : counts) std::cout << ' ' << kind << '=' << n;
  std::cout << '\n';
  if (!last_snapshot.empty()) std::cout << last_snapshot << '\n';
  return kExitOk;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    std::cout << flag_table().help();
    return 0;
  }
  try {
    const io::Args args(argc - 1, argv + 1);
    if (args.get_flag("help")) {
      std::cout << flag_table().help(cmd);
      return 0;
    }
    flag_table().validate(args, cmd);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "resume") return cmd_resume(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "stats") return cmd_stats(args);
    return usage();
  } catch (const io::CheckpointError& e) {
    // CheckpointError messages already carry their "checkpoint:" context.
    std::cerr << "tmwia_cli " << cmd << ": " << e.what() << '\n';
    return kExitCheckpointCorrupt;
  } catch (const std::invalid_argument& e) {
    std::cerr << "tmwia_cli " << cmd << ": " << e.what() << '\n';
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "tmwia_cli " << cmd << ": " << e.what() << '\n';
    return kExitError;
  }
}
