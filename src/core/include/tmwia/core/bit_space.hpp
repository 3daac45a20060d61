// BitSpace: the primitive object space — values are the 0/1 grades of
// the hidden preference matrix, probed through ProbeOracle and mirrored
// onto the shared Billboard.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/zero_radius.hpp"

namespace tmwia::core {

/// Adapter satisfying the Zero Radius Space concept over primitive
/// objects.
class BitSpace {
 public:
  using Value = std::uint8_t;     // 0/1 grade
  using Row = bits::BitVector;    // packed rows: Zero Radius runs word-parallel

  /// `channel_prefix` namespaces the billboard channels of this run so
  /// that nested/parallel Zero Radius executions do not collide.
  BitSpace(billboard::ProbeOracle& oracle, billboard::Billboard* board = nullptr,
           std::string channel_prefix = "zr")
      : oracle_(&oracle), board_(board), prefix_(std::move(channel_prefix)) {}

  Value probe(PlayerId p, std::uint32_t object) {
    return oracle_->probe_resilient(p, object) ? Value{1} : Value{0};
  }

  /// Batched leaf probe: fill the low objects.size() bits of `out` with
  /// p's probes of `objects`, in order. Equivalent to probe() per
  /// object (same cost ledgers, reads and recorder events) but
  /// amortizes the oracle's per-call bookkeeping.
  void probe_row(PlayerId p, std::span<const std::uint32_t> objects, bits::BitVector& out) {
    oracle_->probe_block(p, objects, out);
  }

  /// Mirror a player's published value vector to the billboard (posted
  /// as a packed BitVector on the given channel). Under an attached
  /// fault injector individual publications may be lost; the vote paths
  /// consult post_lost with the same channel so they agree.
  void publish(std::string_view channel, PlayerId p, const bits::BitVector& values) {
    if (auto* inj = oracle_->fault_injector();
        inj != nullptr && inj->post_lost(p, post_tag(channel))) {
      inj->note_post_dropped();
      return;
    }
    if (board_ == nullptr) return;
    board_->post(prefix_ + "/" + std::string(channel), p, values);
  }

  /// Batched mirror: players[i] publishes rows[i] on `channel`, in
  /// index order. Without a fault injector this resolves the channel
  /// name and takes the board lock once for the whole node (Zero
  /// Radius posts every node's outputs); with one it falls back to the
  /// per-player path so crash/post-loss bookkeeping is untouched. A
  /// forked oracle's posts carry its fork order (Billboard::Section).
  void publish_rows(std::string_view channel, std::span<const PlayerId> players,
                    std::span<const bits::BitVector> rows) {
    if (oracle_->fault_injector() == nullptr) {
      if (board_ == nullptr) return;
      board_->post_many(prefix_ + "/" + std::string(channel), players, rows,
                        oracle_->fork_order());
      return;
    }
    for (std::size_t i = 0; i < players.size(); ++i) {
      if (is_failed(players[i])) continue;
      publish(channel, players[i], rows[i]);
    }
  }

  /// publish_rows() of packed rows (players[i] publishes row i of
  /// `rows`), which the board takes as they are
  /// (Billboard::post_packed), with no BitVector per row. Only without
  /// a fault injector, whose post-loss path is publish_rows(): Small
  /// Radius posts packed leaf rows only when the oracle is order_free().
  void publish_packed(std::string_view channel, std::span<const PlayerId> players,
                      billboard::PackedRows rows) {
    if (oracle_->fault_injector() != nullptr) {
      throw std::logic_error("BitSpace::publish_packed: use publish_rows under a fault injector");
    }
    if (board_ == nullptr) return;
    board_->post_packed(prefix_ + "/" + std::string(channel), players, rows,
                        oracle_->fork_order());
  }

  // Degradation hooks of the Zero Radius Space concept (all no-ops
  // without an attached fault injector).
  [[nodiscard]] bool is_failed(PlayerId p) const {
    auto* inj = oracle_->fault_injector();
    return inj != nullptr && inj->is_failed(p);
  }
  [[nodiscard]] bool post_lost(PlayerId p, std::string_view channel) const {
    auto* inj = oracle_->fault_injector();
    return inj != nullptr && inj->post_lost(p, post_tag(channel));
  }
  /// Orphan adoption (a fault-recovery deviation from the paper's
  /// vote) is only licensed when faults are actually being injected.
  [[nodiscard]] bool faults_active() const { return oracle_->fault_injector() != nullptr; }
  void note_orphan(PlayerId p) {
    if (auto* inj = oracle_->fault_injector(); inj != nullptr) inj->note_orphan(p);
  }

  /// The oracle's flight recorder (Zero Radius notes its adopt votes).
  [[nodiscard]] obs::FlightRecorder* recorder() const { return oracle_->recorder(); }

  /// Mark players as Byzantine: from now on, whatever they *publish*
  /// into a vote (Zero Radius step 4) is replaced by the projection of
  /// `forged` onto the vote's object set — the coordinated fake-
  /// candidate attack (all liars push the same vector, the strongest
  /// way to cross the popularity threshold). Their probe results and
  /// own outputs are untouched: in the model, probe results posted on
  /// the billboard are ground truth; only derived claims can lie.
  void set_byzantine(std::vector<PlayerId> liars, bits::BitVector forged) {
    byzantine_ = std::move(liars);
    std::sort(byzantine_.begin(), byzantine_.end());
    forged_ = std::move(forged);
  }

  /// Whether corrupt_posts would currently rewrite anything — lets the
  /// vote path skip copying the posts when nobody lies.
  [[nodiscard]] bool corrupts_posts() const { return !byzantine_.empty(); }

  /// Zero Radius voting hook (see zero_radius.hpp).
  void corrupt_posts(const std::vector<PlayerId>& posters,
                     std::span<const std::uint32_t> object_ids,
                     std::vector<bits::BitVector>& posts) {
    if (byzantine_.empty()) return;
    // tmwia-lint: allow(per-bit-loop) indexed gather onto the vote's object ids; runs only for byzantine liars
    for (std::size_t i = 0; i < posters.size(); ++i) {
      if (!std::binary_search(byzantine_.begin(), byzantine_.end(), posters[i])) continue;
      // tmwia-lint: allow(per-bit-loop) see above: projection of the forged vector is a per-object gather
      for (std::size_t j = 0; j < object_ids.size(); ++j) {
        posts[i].set(j, forged_.get(object_ids[j]));
      }
    }
  }

 private:
  /// One post identity per (prefix, channel, player): the same tag is
  /// derived by the publishing path and the vote paths.
  [[nodiscard]] std::uint64_t post_tag(std::string_view channel) const {
    return faults::FaultInjector::channel_tag(prefix_ + "/" + std::string(channel));
  }

  billboard::ProbeOracle* oracle_;
  billboard::Billboard* board_;
  std::string prefix_;
  std::vector<PlayerId> byzantine_;
  bits::BitVector forged_;
};

/// Zero Radius over primitive objects, returning packed BitVectors
/// aligned with `objects` (row i belongs to players[i]).
std::vector<bits::BitVector> zero_radius_bits(billboard::ProbeOracle& oracle,
                                              billboard::Billboard* board,
                                              const std::vector<PlayerId>& players,
                                              const std::vector<std::uint32_t>& objects,
                                              double alpha, const Params& params,
                                              rng::Rng rng, std::string channel_prefix = "zr");

}  // namespace tmwia::core
