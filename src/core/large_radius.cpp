#include "tmwia/core/large_radius.hpp"

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

  // Steps 2+3 per group: Small Radius with alpha/2 and budget lambda,
  // then Coalesce the group's outputs into candidates B_l.
  std::vector<std::vector<std::uint32_t>> group_objects(L);
  std::vector<std::vector<bits::TriVector>> group_candidates(L);

  const auto coalesce_D = static_cast<std::size_t>(
      std::ceil(params.lr_coalesce_mult * static_cast<double>(std::max<std::size_t>(lambda, 1))));

  for (std::size_t l = 0; l < L; ++l) {
    auto& objs = group_objects[l];
    objs.reserve(obj_partition.parts[l].size());
    for (std::uint32_t pos : obj_partition.parts[l]) objs.push_back(objects[pos]);
    if (objs.empty()) continue;

    std::vector<PlayerId> group_players;
    group_players.reserve(player_assignment.parts[l].size());
    for (std::uint32_t pos : player_assignment.parts[l]) group_players.push_back(players[pos]);
    if (group_players.empty()) continue;

    const auto sr = small_radius(oracle, board, group_players, objs, alpha / 2.0, lambda,
                                 params, rng.split(0x5a11, l), n);

    // Degradation: only survivors' outputs reach the billboard and the
    // Coalesce vote; the ball-size quorum is taken over them.
    auto* injector = oracle.fault_injector();
    std::vector<bits::BitVector> surviving;
    surviving.reserve(group_players.size());
    for (std::size_t i = 0; i < group_players.size(); ++i) {
      if (injector == nullptr || !injector->is_failed(group_players[i])) {
        surviving.push_back(sr.outputs[i]);
      }
    }

    // Publish the per-group outputs (the billboard contents Coalesce
    // reads; it is deterministic, so running it once here equals every
    // player running it locally).
    if (board != nullptr) {
      const std::string channel = "lr/group/" + std::to_string(l);
      for (std::size_t i = 0; i < group_players.size(); ++i) {
        if (injector != nullptr && injector->is_failed(group_players[i])) continue;
        board->post(channel, group_players[i], sr.outputs[i]);
      }
    }

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
