#include "tmwia/engine/supervisor.hpp"

#include <algorithm>
#include <utility>

#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/obs/metrics.hpp"

namespace tmwia::engine {
namespace {

struct SupervisorMetrics {
  obs::MetricsRegistry::Counter strikes =
      obs::MetricsRegistry::global().counter("supervisor.strikes");
  obs::MetricsRegistry::Counter quarantined =
      obs::MetricsRegistry::global().counter("supervisor.quarantined");
  obs::MetricsRegistry::Counter benched =
      obs::MetricsRegistry::global().counter("supervisor.benched_rounds");
  obs::MetricsRegistry::Counter unmet =
      obs::MetricsRegistry::global().counter("supervisor.unmet_phases");
};

const SupervisorMetrics& supervisor_metrics() {
  static const SupervisorMetrics m;
  return m;
}

/// The strike/backoff/quarantine decorator. Catches everything the
/// inner strategy throws *before* the scheduler's own catch would mark
/// the player permanently failed, and converts the failure into idle
/// rounds. Backoff windows are [strike round + 1, strike round + 1 +
/// bench) on the shared round clock — deterministic, no wall time.
class SupervisedStrategy final : public billboard::PlayerStrategy {
 public:
  SupervisedStrategy(std::unique_ptr<billboard::PlayerStrategy> inner,
                     const SupervisorConfig& cfg)
      : inner_(std::move(inner)), cfg_(&cfg) {}

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override {
    last_round_ = view.round();
    if (quarantined_) return std::nullopt;
    if (view.round() < bench_until_) {
      ++benched_rounds_;
      return std::nullopt;
    }
    try {
      return inner_->next_probe(view);
    } catch (...) {
      strike();
      return std::nullopt;
    }
  }

  void on_result(billboard::ObjectId o, bool value) override {
    if (quarantined_) return;
    try {
      inner_->on_result(o, value);
    } catch (...) {
      strike();
    }
  }

  std::vector<billboard::PendingPost> posts() override {
    if (quarantined_) return {};
    try {
      return inner_->posts();
    } catch (...) {
      strike();
      return {};
    }
  }

  [[nodiscard]] bool done() const override {
    // A quarantined strategy is "done" so it cannot stall the run; the
    // degradation is reported through SupervisorResult instead.
    if (quarantined_) return true;
    try {
      return inner_->done();
    } catch (...) {
      strike();  // strike state is mutable: done() must stay const
      return quarantined_;
    }
  }

  [[nodiscard]] bool quarantined() const { return quarantined_; }
  [[nodiscard]] std::uint64_t strikes() const { return strikes_; }
  [[nodiscard]] std::uint64_t benched_rounds() const { return benched_rounds_; }

  std::unique_ptr<billboard::PlayerStrategy> release_inner() { return std::move(inner_); }

 private:
  void strike() const {
    ++strikes_;
    supervisor_metrics().strikes.inc();
    if (strikes_ >= cfg_->max_strikes) {
      quarantined_ = true;
      return;
    }
    // Deterministic exponential backoff in round-clock units: base,
    // 2*base, 4*base, ... capped.
    const std::size_t shift = static_cast<std::size_t>(strikes_) - 1;
    std::size_t bench = cfg_->backoff_cap;
    if (shift < 8 * sizeof(std::size_t) &&
        (cfg_->backoff_base << shift) >> shift == cfg_->backoff_base) {
      bench = std::min(cfg_->backoff_base << shift, cfg_->backoff_cap);
    }
    bench_until_ = last_round_ + 1 + bench;
  }

  std::unique_ptr<billboard::PlayerStrategy> inner_;
  const SupervisorConfig* cfg_;
  // Mutable: done() is const but a throwing done() still earns a strike.
  mutable std::uint64_t strikes_ = 0;
  mutable std::uint64_t benched_rounds_ = 0;
  mutable std::size_t bench_until_ = 0;
  std::size_t last_round_ = 0;
  mutable bool quarantined_ = false;
};

}  // namespace

Supervisor::Supervisor(billboard::ProbeOracle& oracle, SupervisorConfig cfg)
    : oracle_(&oracle), cfg_(cfg), scheduler_(oracle) {}

SupervisorResult Supervisor::run(
    std::vector<std::unique_ptr<billboard::PlayerStrategy>>& strategies,
    const std::vector<PhaseSpec>& phases) {
  const auto& metrics = supervisor_metrics();

  // Wrap every live strategy; handles keep typed access for the
  // post-run harvest (ownership returns to the caller on exit).
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> wrapped(strategies.size());
  std::vector<SupervisedStrategy*> handles(strategies.size(), nullptr);
  for (std::size_t p = 0; p < strategies.size(); ++p) {
    if (!strategies[p]) continue;
    auto sup = std::make_unique<SupervisedStrategy>(std::move(strategies[p]), cfg_);
    handles[p] = sup.get();
    wrapped[p] = std::move(sup);
  }

  SupervisorResult out;
  const auto probes_at_entry = oracle_->total_invocations();
  std::uint64_t cum_rounds = 0;
  for (const auto& phase : phases) {
    auto res = scheduler_.run(wrapped, phase.round_budget);
    const bool met = res.all_done;
    if (!met) {
      out.unmet_phases.push_back(phase.label);
      metrics.unmet.inc();
    }
    const bool stop = res.all_done;
    cum_rounds += res.rounds;
    out.phases.push_back({phase.label, std::move(res), met, cum_rounds,
                          oracle_->total_invocations() - probes_at_entry});
    if (stop) break;  // later deadlines are moot once everyone is done
  }

  auto* injector = oracle_->fault_injector();
  for (std::size_t p = 0; p < wrapped.size(); ++p) {
    auto* h = handles[p];
    if (h == nullptr) continue;
    out.strikes += h->strikes();
    out.benched_rounds += h->benched_rounds();
    if (h->quarantined()) {
      out.quarantined.push_back(static_cast<billboard::PlayerId>(p));
      metrics.quarantined.inc();
      if (injector != nullptr) {
        // Route the player through the existing degradation machinery:
        // excluded from votes, re-adopted by the orphan-rescue path.
        injector->mark_degraded(static_cast<billboard::PlayerId>(p));
        injector->note_orphan(static_cast<billboard::PlayerId>(p));
      }
    }
    strategies[p] = h->release_inner();
  }
  metrics.benched.add(out.benched_rounds);
  std::sort(out.quarantined.begin(), out.quarantined.end());
  return out;
}

}  // namespace tmwia::engine
