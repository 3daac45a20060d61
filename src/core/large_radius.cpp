#include "tmwia/core/large_radius.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "tmwia/core/coalesce.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/partition.hpp"

namespace tmwia::core {
namespace {

/// Step 4's object space: "object" l is the whole group O_l, its value
/// the index of the Coalesce candidate the prober selects. One virtual
/// probe = one Select run over B_l on the group's primitive objects,
/// charged through the oracle like any other probing.
class VirtualSpace {
 public:
  using Value = std::uint32_t;

  VirtualSpace(billboard::ProbeOracle& oracle,
               const std::vector<std::vector<std::uint32_t>>& group_objects,
               const std::vector<std::vector<bits::TriVector>>& candidates,
               std::size_t select_bound)
      : oracle_(&oracle),
        group_objects_(&group_objects),
        candidates_(&candidates),
        select_bound_(select_bound) {}

  Value probe(PlayerId p, std::uint32_t group) {
    const auto& cands = (*candidates_)[group];
    if (cands.empty()) return 0;
    if (cands.size() == 1) return 0;
    const auto& objs = (*group_objects_)[group];
    const auto sel = select_closest(cands, select_bound_, [&](std::uint32_t j) {
      return oracle_->probe_resilient(p, objs[j]);
    });
    return static_cast<Value>(sel.index);
  }

  // Degradation hooks (see zero_radius.hpp): the virtual instance
  // inherits the primitive oracle's fault state.
  [[nodiscard]] bool is_failed(PlayerId p) const {
    auto* inj = oracle_->fault_injector();
    return inj != nullptr && inj->is_failed(p);
  }
  void note_orphan(PlayerId p) {
    if (auto* inj = oracle_->fault_injector(); inj != nullptr) inj->note_orphan(p);
  }
  [[nodiscard]] bool faults_active() const { return oracle_->fault_injector() != nullptr; }
  /// The virtual instance's adopt notes go to the primitive oracle's
  /// recorder.
  [[nodiscard]] obs::FlightRecorder* recorder() const { return oracle_->recorder(); }

 private:
  billboard::ProbeOracle* oracle_;
  const std::vector<std::vector<std::uint32_t>>* group_objects_;
  const std::vector<std::vector<bits::TriVector>>* candidates_;
  std::size_t select_bound_;
};

}  // namespace

LargeRadiusResult large_radius(billboard::ProbeOracle& oracle, billboard::Billboard* board,
                               const std::vector<PlayerId>& players,
                               const std::vector<std::uint32_t>& objects, double alpha,
                               std::size_t D, const Params& params, rng::Rng rng) {
  require_alpha(alpha, "large_radius");
  if (players.empty()) return {};

  const std::size_t n = players.size();
  const std::size_t m = objects.size();
  const double log_n = std::log2(static_cast<double>(std::max<std::size_t>(n, 4)));

  LargeRadiusResult res;

  // Per-group distance budget lambda = min(D, O(log n)).
  const auto lambda = std::min<std::size_t>(
      D, static_cast<std::size_t>(std::ceil(params.lr_lambda_mult * log_n)));
  res.lambda = lambda;

  // Step 1: L object groups; each player joins enough groups that every
  // group expects >= lr_players_mult * log n / alpha players.
  std::size_t L = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(params.lr_parts_c * static_cast<double>(D) / std::max(1.0, log_n))));
  L = std::min({L, m, n});
  res.parts = L;

  rng::Rng part_rng = rng.split(0xC0DE);
  const auto obj_partition = rng::random_partition(m, L, part_rng);

  const double target_per_part = params.lr_players_mult * log_n / alpha;
  const auto copies = std::max<std::size_t>(
      1, ceil_count(target_per_part * static_cast<double>(L) / static_cast<double>(n)));
  res.player_copies = std::min(copies, L);

  std::vector<std::uint32_t> player_positions(n);
  for (std::size_t i = 0; i < n; ++i) player_positions[i] = static_cast<std::uint32_t>(i);
  const auto player_assignment = rng::assign_to_parts(player_positions, L, copies, part_rng);

  // Every group's objects and players, built up front.
  std::vector<std::vector<std::uint32_t>> group_objects(L);
  std::vector<std::vector<PlayerId>> group_players(L);
  for (std::size_t l = 0; l < L; ++l) {
    group_objects[l].reserve(obj_partition.parts[l].size());
    for (std::uint32_t pos : obj_partition.parts[l]) group_objects[l].push_back(objects[pos]);
    group_players[l].reserve(player_assignment.parts[l].size());
    for (std::uint32_t pos : player_assignment.parts[l]) group_players[l].push_back(players[pos]);
  }
  const auto active = [&](std::size_t l) {
    return !group_objects[l].empty() && !group_players[l].empty();
  };

  std::vector<std::vector<bits::TriVector>> group_candidates(L);
  const auto coalesce_D = static_cast<std::size_t>(
      std::ceil(params.lr_coalesce_mult * static_cast<double>(std::max<std::size_t>(lambda, 1))));

  // Step 2 for group l: Small Radius with alpha/2 and budget lambda,
  // probing through `probes` (the oracle, or the group's fork of it)
  // and posting under the group's own channels.
  const auto run_group = [&](std::size_t l, billboard::ProbeOracle& probes) {
    return small_radius(probes, board, group_players[l], group_objects[l], alpha / 2.0, lambda,
                        params, rng.split(0x5a11, l), n,
                        "lr/group/" + std::to_string(l) + "/sr")
        .outputs;
  };

  // Step 3 for group l, on the caller in group order: publish the
  // group's outputs, then Coalesce them into the candidates B_l.
  const auto finish_group = [&](std::size_t l, const std::vector<bits::BitVector>& outputs) {
    const auto& members = group_players[l];
    // Degradation: only survivors' outputs reach the billboard and the
    // Coalesce vote; the ball-size quorum is taken over them.
    auto* injector = oracle.fault_injector();
    std::vector<PlayerId> posters;
    std::vector<bits::BitVector> surviving;
    posters.reserve(members.size());
    surviving.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (injector == nullptr || !injector->is_failed(members[i])) {
        posters.push_back(members[i]);
        surviving.push_back(outputs[i]);
      }
    }

    // Publish the per-group outputs, in member order (the billboard
    // contents Coalesce reads; it is deterministic, so running it once
    // here equals every player running it locally).
    if (board != nullptr) board->post_many("lr/group/" + std::to_string(l), posters, surviving);

    const auto min_ball = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(params.zr_vote_frac * alpha *
                                              static_cast<double>(surviving.size()))));
    auto co = coalesce(surviving, coalesce_D, min_ball, params.co_merge_mult);
    res.max_candidates = std::max(res.max_candidates, co.candidates.size());
    // Per-group coalesce record; serial drain point for the recorder.
    if (auto* rec = oracle.recorder()) {
      rec->note("lr.group", surviving.size(), co.candidates.size());
    }
    group_candidates[l] = std::move(co.candidates);
  };

  // The paper runs the L groups at once. Here they run as pool tasks,
  // in waves of one group per pool thread, each probing through its own
  // fork of the oracle and posting under its own channels; after a wave
  // the caller joins the forks and finishes the groups in group order,
  // so every ledger, post and candidate equals the serial loop's. The
  // groups stay serial, on the oracle itself, when the order they run
  // in is observable (a flight recorder or a fault injector) or when
  // there are fewer groups than pool threads.
  const bool board_records = board != nullptr && board->recorder() != nullptr;
  const std::size_t wave = L > 1 && oracle.forkable() && !board_records
                               ? engine::ThreadPool::global().thread_count()
                               : 1;
  if (wave == 1 || L < wave) {
    for (std::size_t l = 0; l < L; ++l) {
      if (active(l)) finish_group(l, run_group(l, oracle));
    }
  } else {
    for (std::size_t lo = 0; lo < L; lo += wave) {
      const std::size_t hi = std::min(L, lo + wave);
      std::vector<billboard::ProbeOracle> forks;
      forks.reserve(hi - lo);
      for (std::size_t l = lo; l < hi; ++l) forks.push_back(oracle.fork(group_players[l]));
      std::vector<std::vector<bits::BitVector>> outputs(hi - lo);
      engine::parallel_for(
          lo, hi,
          [&](std::size_t l) {
            if (active(l)) outputs[l - lo] = run_group(l, forks[l - lo]);
          },
          1);
      for (std::size_t l = lo; l < hi; ++l) {
        oracle.join(forks[l - lo]);
        if (active(l)) finish_group(l, outputs[l - lo]);
      }
    }
  }

  // Step 4: Zero Radius over the L virtual objects.
  const auto select_bound = static_cast<std::size_t>(
      std::ceil(params.lr_select_mult * static_cast<double>(coalesce_D)));
  VirtualSpace vspace(oracle, group_objects, group_candidates, select_bound);

  std::vector<std::uint32_t> virtual_objects(L);
  for (std::size_t l = 0; l < L; ++l) virtual_objects[l] = static_cast<std::uint32_t>(l);

  const auto choices =
      zero_radius(vspace, players, virtual_objects, alpha, params, rng.split(0xF17A1), n);

  // Materialize: concatenate each player's chosen candidates, ? -> 0.
  res.outputs.assign(n, bits::BitVector(m));
  engine::parallel_for(0, n, [&](std::size_t i) {
    for (std::size_t l = 0; l < L; ++l) {
      const auto& cands = group_candidates[l];
      if (cands.empty()) continue;
      const std::uint32_t idx = std::min<std::uint32_t>(
          choices[i][l], static_cast<std::uint32_t>(cands.size() - 1));
      const bits::BitVector piece = cands[idx].fill_unknown(false);
      res.outputs[i].scatter(piece, obj_partition.parts[l]);
    }
  });

  return res;
}

}  // namespace tmwia::core
