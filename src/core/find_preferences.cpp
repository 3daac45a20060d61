#include "tmwia/core/find_preferences.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/checkpoint.hpp"
#include "tmwia/core/large_radius.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::core {
namespace {

std::vector<PlayerId> all_players(const billboard::ProbeOracle& oracle) {
  std::vector<PlayerId> p(oracle.players());
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

std::vector<std::uint32_t> all_objects(const billboard::ProbeOracle& oracle) {
  std::vector<std::uint32_t> o(oracle.objects());
  std::iota(o.begin(), o.end(), 0u);
  return o;
}

const char* branch_name(Branch b) {
  switch (b) {
    case Branch::kZeroRadius: return "zero";
    case Branch::kSmallRadius: return "small";
    case Branch::kLargeRadius: return "large";
  }
  return "?";
}

/// Append a timeline checkpoint to the report and, when a recorder is
/// attached, emit the matching phase_summary record (whose evaluator
/// — if the harness set one — supplies the discrepancy fields).
void record_checkpoint(RunReport& res, obs::FlightRecorder* rec, std::string_view label,
                       const std::vector<bits::BitVector>& outputs, std::uint64_t cum_rounds,
                       std::uint64_t cum_probes) {
  PhaseCheckpoint cp;
  cp.label = std::string(label);
  cp.rounds = cum_rounds;
  cp.total_probes = cum_probes;
  if (rec != nullptr) {
    const auto eval = rec->phase_summary(label, outputs, cum_rounds, cum_probes);
    cp.max_disc = eval.max_disc;
    cp.mean_disc = eval.mean_disc;
  }
  res.timeline.push_back(std::move(cp));
}

}  // namespace

void rescue_orphans(billboard::ProbeOracle& oracle, std::vector<bits::BitVector>& outputs,
                    const std::vector<PlayerId>& players, const Params& params,
                    const rng::Rng& rng) {
  auto* injector = oracle.fault_injector();
  if (injector == nullptr) return;

  std::vector<std::size_t> orphans;
  std::vector<bits::BitVector> surviving;
  for (std::size_t i = 0; i < players.size(); ++i) {
    const PlayerId p = players[i];
    if (injector->is_failed(p)) continue;
    if (injector->is_orphaned(p)) {
      orphans.push_back(i);
    } else {
      surviving.push_back(outputs[i]);
    }
  }
  if (orphans.empty() || surviving.empty()) return;

  static const auto c_rescued =
      obs::MetricsRegistry::global().counter("core.orphans_rescued");
  c_rescued.add(orphans.size());

  // Candidate pool: the most-supported surviving outputs (ties broken
  // lexicographically), capped like node-level orphan adoption.
  const auto candidates = detail::top_vectors(surviving, params.ft_orphan_candidates);

  engine::parallel_for(0, orphans.size(), [&](std::size_t k) {
    const std::size_t i = orphans[k];
    const PlayerId p = players[i];
    // The player's own (possibly partial) output competes too, so the
    // rescue can only help.
    std::vector<bits::BitVector> cands = candidates;
    cands.push_back(outputs[i]);
    rng::Rng prng = rng.split(0x0FA9, p);
    const auto sel = rselect_closest(
        cands, players.size(),
        [&](std::uint32_t j) { return oracle.probe_resilient(p, j); }, prng, params);
    outputs[i] = std::move(cands[sel.index]);
  });
}

RunReport find_preferences(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                           double alpha, std::size_t D, const Params& params, rng::Rng rng) {
  require_alpha(alpha, "find_preferences");
  const auto players = all_players(oracle);
  const auto objects = all_objects(oracle);
  const auto before = oracle.snapshot();
  const auto probes_before = oracle.total_invocations();

  RunReport res;
  res.algo = RunReport::Algo::kFixedD;
  const double log_n = std::log2(static_cast<double>(std::max<std::size_t>(players.size(), 4)));
  const auto small_cutoff =
      static_cast<std::size_t>(std::ceil(params.lr_lambda_mult * log_n));

  static const auto c_zero = obs::MetricsRegistry::global().counter("core.fp.branch.zero");
  static const auto c_small = obs::MetricsRegistry::global().counter("core.fp.branch.small");
  static const auto c_large = obs::MetricsRegistry::global().counter("core.fp.branch.large");

  res.branch = D == 0              ? Branch::kZeroRadius
               : D <= small_cutoff ? Branch::kSmallRadius
                                   : Branch::kLargeRadius;
  const std::string phase_label = std::string("fp:") + branch_name(res.branch);
  auto* rec = oracle.recorder();
  if (rec != nullptr) rec->run_begin(phase_label, alpha, players.size(), objects.size(), D);

  {
    obs::ProfileZone branch_zone(phase_label);
    switch (res.branch) {
      case Branch::kZeroRadius:
        c_zero.inc();
        res.outputs = zero_radius_bits(oracle, board, players, objects, alpha, params,
                                       rng.split(0x2e20), "main/zr");
        break;
      case Branch::kSmallRadius:
        c_small.inc();
        res.outputs = small_radius(oracle, board, players, objects, alpha, D, params,
                                   rng.split(0x57a11), players.size(), "sr")
                          .outputs;
        break;
      case Branch::kLargeRadius:
        c_large.inc();
        res.outputs =
            large_radius(oracle, board, players, objects, alpha, D, params, rng.split(0x1a26e))
                .outputs;
        break;
    }

    rescue_orphans(oracle, res.outputs, players, params, rng.split(0x0E5C));
  }

  res.rounds = oracle.rounds_since(before);
  res.total_probes = oracle.total_invocations() - probes_before;
  record_checkpoint(res, rec, phase_label, res.outputs, res.rounds, res.total_probes);
  if (rec != nullptr) rec->run_end(phase_label, res.rounds, res.total_probes);
  return res;
}

namespace {

/// Section 6.1's guesses D = 0, 1, 2, 4, ... below m.
std::vector<std::size_t> guesses_for(std::size_t m) {
  std::vector<std::size_t> guesses{0};
  for (std::size_t d = 1; d < m; d *= 2) guesses.push_back(d);
  return guesses;
}

/// Shared body of the three unknown-D entry points. `policy` (optional)
/// cuts checkpoints at guess boundaries; `resume` (optional) continues
/// from a previously-cut checkpoint instead of starting fresh. The
/// resumed execution replays the uninterrupted one byte-for-byte: the
/// root rng state was stored (splits are pure in it), the recorder
/// clock was restored by the caller, and run_begin is skipped because
/// the original run's record already carries it.
RunReport unknown_d_impl(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                         double alpha, const Params& params, rng::Rng rng,
                         const CheckpointPolicy* policy, const RunCheckpoint* resume) {
  require_alpha(alpha, "find_preferences_unknown_d");
  const auto players = all_players(oracle);
  const auto objects = all_objects(oracle);
  const std::size_t m = objects.size();

  obs::ProfileZone prof_zone("unknown_d");
  auto* rec = oracle.recorder();

  RunReport res;
  res.algo = RunReport::Algo::kUnknownD;
  res.guesses = guesses_for(m);
  std::vector<std::vector<bits::BitVector>> versions;
  std::vector<std::uint64_t> before;
  std::uint64_t probes_before = 0;
  std::uint64_t ckpt_seq = 0;
  std::uint64_t last_ckpt_rounds = 0;

  if (resume != nullptr) {
    versions = resume->versions;
    res.timeline = resume->timeline;
    before = resume->before;
    probes_before = resume->probes_before;
    ckpt_seq = resume->seq;
    last_ckpt_rounds = resume->cum_rounds;
  } else {
    before = oracle.snapshot();
    probes_before = oracle.total_invocations();
    if (rec != nullptr) rec->run_begin("unknown_d", alpha, players.size(), objects.size());
  }
  versions.reserve(res.guesses.size());

  static const auto h_guess_probes = obs::MetricsRegistry::global().histogram(
      "core.unknown_d.guess_probes", obs::MetricsRegistry::pow2_bounds(32));

  // Cut a checkpoint when the cadence says one is due, then give the
  // fault plan its chance to SIGKILL. Order matters: the kill drill
  // must always find a fresh file to resume from, and the ckpt note is
  // emitted *before* the sink runs so the stored recorder clock points
  // just past it (the splice point).
  const auto maybe_checkpoint = [&] {
    const std::uint64_t cum = oracle.rounds_since(before);
    if (policy != nullptr && policy->every_rounds > 0 &&
        cum - last_ckpt_rounds >= policy->every_rounds) {
      ++ckpt_seq;
      if (rec != nullptr) rec->note("ckpt", ckpt_seq, cum);
      if (policy->sink) {
        RunCheckpoint ck;
        ck.algo = "unknown_d";
        ck.alpha = alpha;
        ck.players = players.size();
        ck.objects = m;
        ck.seq = ckpt_seq;
        ck.cum_rounds = cum;
        ck.recorder_clock = rec != nullptr ? rec->clock() : 0;
        ck.versions = versions;
        ck.timeline = res.timeline;
        ck.before = before;
        ck.probes_before = probes_before;
        ck.rng_state = rng.state();
        ck.oracle = oracle.export_ledger();
        if (board != nullptr) ck.board = board->export_posts();
        if (auto* inj = oracle.fault_injector()) {
          ck.has_injector = true;
          ck.injector = inj->export_state();
        }
        auto& reg = obs::MetricsRegistry::global();
        if (reg.enabled()) {
          ck.metrics_enabled = true;
          ck.metrics = reg.snapshot();
        }
        policy->sink(ck);
      }
      last_ckpt_rounds = cum;
    }
    if (auto* inj = oracle.fault_injector()) inj->maybe_kill(cum);
  };

  // One main-algorithm run per guess. Outputs are posted publicly (via
  // the per-run channels), then each player privately picks the
  // candidate closest to its own vector with RSelect — no distance
  // bound is needed (Section 6.1).
  for (std::size_t gi = versions.size(); gi < res.guesses.size(); ++gi) {
    const auto guess_probes_before = oracle.total_invocations();
    {
      // tmwia-lint: allow(metric-name-registry) guess zones are parameterized by d
      obs::ProfileZone guess_zone("guess:d=" + std::to_string(res.guesses[gi]));
      versions.push_back(
          find_preferences(oracle, board, alpha, res.guesses[gi], params, rng.split(0xD0, gi))
              .outputs);
    }
    const auto guess_probes = oracle.total_invocations() - guess_probes_before;
    h_guess_probes.observe(guess_probes);
    record_checkpoint(res, rec, "guess:d=" + std::to_string(res.guesses[gi]), versions.back(),
                      oracle.rounds_since(before),
                      oracle.total_invocations() - probes_before);
    maybe_checkpoint();
  }

  res.outputs.assign(players.size(), bits::BitVector(m));
  res.chosen_d.assign(players.size(), 0);
  auto* injector = oracle.fault_injector();
  obs::ProfileZone select_zone("select");
  engine::parallel_for(0, players.size(), [&](std::size_t i) {
    const PlayerId p = players[i];
    std::vector<bits::BitVector> candidates;
    candidates.reserve(versions.size());
    for (const auto& v : versions) candidates.push_back(v[i]);
    if (injector != nullptr && injector->is_failed(p)) {
      // Degraded players cannot probe a tournament; pick the candidate
      // that agrees best with what they managed to post on the
      // billboard before failing (free billboard reads).
      const auto& mask = oracle.probed_mask(p);
      const auto& vals = oracle.posted_values(p);
      std::size_t best = 0;
      std::size_t best_dist = std::numeric_limits<std::size_t>::max();
      for (std::size_t gi = 0; gi < candidates.size(); ++gi) {
        const auto dist = ((candidates[gi] ^ vals) & mask).count_ones();
        if (dist < best_dist) {
          best = gi;
          best_dist = dist;
        }
      }
      res.outputs[i] = std::move(candidates[best]);
      res.chosen_d[i] = res.guesses[best];
      return;
    }
    rng::Rng prng = rng.split(0x9e1ec7, p);
    const auto sel = rselect_closest(
        candidates, players.size(),
        [&](std::uint32_t j) { return oracle.probe_resilient(p, objects[j]); }, prng, params);
    res.outputs[i] = std::move(candidates[sel.index]);
    res.chosen_d[i] = res.guesses[sel.index];
  });

  res.rounds = oracle.rounds_since(before);
  res.total_probes = oracle.total_invocations() - probes_before;
  record_checkpoint(res, rec, "select", res.outputs, res.rounds, res.total_probes);
  if (rec != nullptr) rec->run_end("unknown_d", res.rounds, res.total_probes);
  return res;
}

}  // namespace

RunReport find_preferences_unknown_d(billboard::ProbeOracle& oracle,
                                     billboard::Billboard* board, double alpha,
                                     const Params& params, rng::Rng rng) {
  return unknown_d_impl(oracle, board, alpha, params, rng, nullptr, nullptr);
}

RunReport find_preferences_unknown_d(billboard::ProbeOracle& oracle,
                                     billboard::Billboard* board, double alpha,
                                     const Params& params, rng::Rng rng,
                                     const CheckpointPolicy& policy) {
  return unknown_d_impl(oracle, board, alpha, params, rng, &policy, nullptr);
}

RunReport resume_unknown_d(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                           const Params& params, const RunCheckpoint& ckpt,
                           const CheckpointPolicy& policy) {
  if (ckpt.algo != "unknown_d") {
    throw std::invalid_argument("resume_unknown_d: checkpoint is for algo '" + ckpt.algo +
                                "'");
  }
  if (ckpt.players != oracle.players() || ckpt.objects != oracle.objects()) {
    throw std::invalid_argument(
        "resume_unknown_d: checkpoint shape (" + std::to_string(ckpt.players) + "x" +
        std::to_string(ckpt.objects) + ") does not match oracle (" +
        std::to_string(oracle.players()) + "x" + std::to_string(oracle.objects()) + ")");
  }

  // The cursor must fit the shape before any state is touched: the
  // final RSelect reads row i of every version, and rounds_since reads
  // `before` per player.
  const std::size_t guesses = guesses_for(ckpt.objects).size();
  const bool rows_fit = std::all_of(ckpt.versions.begin(), ckpt.versions.end(),
                                    [&](const auto& v) { return v.size() == ckpt.players; });
  if (ckpt.versions.size() > guesses || !rows_fit ||
      ckpt.timeline.size() != ckpt.versions.size() || ckpt.before.size() != ckpt.players) {
    throw io::CheckpointError(
        "checkpoint tower: cursor does not fit " + std::to_string(ckpt.players) +
        " players (" + std::to_string(ckpt.versions.size()) + " versions for " +
        std::to_string(guesses) + " guesses, rows per player " +
        (rows_fit ? "ok" : "wrong") + ", " + std::to_string(ckpt.timeline.size()) +
        " timeline entries, " + std::to_string(ckpt.before.size()) + " 'before' entries)");
  }

  // Splice the world back together: cost ledgers and probe records,
  // billboard posts, fault cursors, the metrics stream (into a registry
  // the caller enabled), and the flight recorder's logical clock
  // (re-entering the still-open run scope).
  oracle.restore_ledger(ckpt.oracle);
  if (board != nullptr) board->restore_posts(ckpt.board);
  auto* injector = oracle.fault_injector();
  if (ckpt.has_injector) {
    if (injector == nullptr) {
      throw std::invalid_argument(
          "resume_unknown_d: checkpoint has fault state but no injector is attached");
    }
    injector->restore_state(ckpt.injector);
  }
  auto& reg = obs::MetricsRegistry::global();
  if (ckpt.metrics_enabled && reg.enabled()) reg.restore(ckpt.metrics);
  if (auto* rec = oracle.recorder()) rec->resume_run(oracle.players(), ckpt.recorder_clock);

  return unknown_d_impl(oracle, board, ckpt.alpha, params,
                        rng::Rng::from_state(ckpt.rng_state), &policy, &ckpt);
}

void keep_better_outputs(billboard::ProbeOracle& oracle,
                         std::vector<bits::BitVector>& current,
                         std::vector<bits::BitVector>& challenger, std::uint64_t phase,
                         const Params& params, const rng::Rng& rng) {
  auto* injector = oracle.fault_injector();
  obs::ProfileZone zone("keep_better");
  engine::parallel_for(0, current.size(), [&](std::size_t i) {
    const PlayerId p = static_cast<PlayerId>(i);
    if (injector != nullptr && injector->is_failed(p)) return;
    std::vector<bits::BitVector> candidates{current[i], challenger[i]};
    rng::Rng prng = rng.split(0xbe57, phase, p);
    const auto sel = rselect_closest(
        candidates, current.size(),
        [&](std::uint32_t j) { return oracle.probe_resilient(p, j); }, prng, params);
    if (sel.index == 1) current[i] = std::move(challenger[i]);
  });
}

RunReport anytime(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                  std::uint64_t round_budget, const Params& params, rng::Rng rng) {
  const auto players = all_players(oracle);
  const auto objects = all_objects(oracle);
  const auto before = oracle.snapshot();
  const auto probes_before = oracle.total_invocations();

  obs::ProfileZone prof_zone("anytime");
  auto* rec = oracle.recorder();
  if (rec != nullptr) rec->run_begin("anytime", 1.0, players.size(), objects.size());

  RunReport res;
  res.algo = RunReport::Algo::kAnytime;
  res.outputs.assign(players.size(), bits::BitVector(objects.size()));

  bool have_previous = false;
  for (std::size_t phase = 1;; ++phase) {
    const double alpha = std::pow(0.5, static_cast<double>(phase));
    if (alpha * static_cast<double>(players.size()) < 1.0) break;

    // tmwia-lint: allow(metric-name-registry) phase zones are parameterized by index
    obs::ProfileZone phase_zone("phase:" + std::to_string(phase));
    auto run = find_preferences_unknown_d(oracle, board, alpha, params, rng.split(0xA17, phase));

    if (!have_previous) {
      res.outputs = std::move(run.outputs);
      have_previous = true;
    } else {
      // Keep the better of old/new per player (RSelect with 2
      // candidates). Degraded players keep their previous output.
      keep_better_outputs(oracle, res.outputs, run.outputs, phase, params, rng);
    }

    res.phases.push_back(AnytimePhase{alpha, oracle.rounds_since(before),
                                      oracle.total_invocations() - probes_before});
    record_checkpoint(res, rec, "phase:" + std::to_string(phase), res.outputs,
                      res.phases.back().rounds, res.phases.back().total_probes);
    if (oracle.rounds_since(before) >= round_budget) break;
  }

  res.rounds = oracle.rounds_since(before);
  res.total_probes = oracle.total_invocations() - probes_before;
  if (rec != nullptr) rec->run_end("anytime", res.rounds, res.total_probes);
  return res;
}

}  // namespace tmwia::core
