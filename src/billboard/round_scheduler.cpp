#include "tmwia/billboard/round_scheduler.hpp"

#include <stdexcept>

#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::billboard {
namespace {

struct SchedulerMetrics {
  obs::MetricsRegistry::Counter rounds =
      obs::MetricsRegistry::global().counter("scheduler.rounds");
  obs::MetricsRegistry::Counter crash_skips =
      obs::MetricsRegistry::global().counter("scheduler.crash_skips");
  obs::MetricsRegistry::Counter idle =
      obs::MetricsRegistry::global().counter("scheduler.idle_probes");
  obs::MetricsRegistry::Counter posts_dropped =
      obs::MetricsRegistry::global().counter("scheduler.posts_dropped");
  obs::MetricsRegistry::Counter posts_delayed =
      obs::MetricsRegistry::global().counter("scheduler.posts_delayed");
  obs::MetricsRegistry::Counter strategy_exceptions =
      obs::MetricsRegistry::global().counter("scheduler.strategy_exceptions");
  obs::MetricsRegistry::Histogram active_players = obs::MetricsRegistry::global().histogram(
      "scheduler.active_players", obs::MetricsRegistry::pow2_bounds(24));
};

const SchedulerMetrics& scheduler_metrics() {
  static const SchedulerMetrics m;
  return m;
}

}  // namespace

RoundScheduler::RoundScheduler(ProbeOracle& oracle)
    : oracle_(&oracle),
      posted_(oracle.players(), bits::BitVector(oracle.objects())) {}

ScheduleResult RoundScheduler::run(std::vector<std::unique_ptr<PlayerStrategy>>& strategies,
                                   std::size_t max_rounds) {
  if (strategies.size() != oracle_->players()) {
    throw std::invalid_argument("RoundScheduler::run: one strategy slot per player");
  }

  auto* injector = oracle_->fault_injector();
  auto* auditor = oracle_->auditor();
  const auto& metrics = scheduler_metrics();
  // The board this scheduler owns logs its vector posts to the same
  // recorder as the oracle it drives.
  auto* rec = oracle_->recorder();
  board_.set_recorder(rec);
  const auto inv_before = oracle_->snapshot();
  const auto total_before = oracle_->total_invocations();
  if (rec != nullptr) {
    rec->run_begin("scheduler", 0.0, oracle_->players(), oracle_->objects());
  }

  ScheduleResult res;
  struct Pending {
    PlayerId p;
    ObjectId o;
  };
  struct DelayedPost {
    std::size_t due_round;
    PlayerId p;
    PendingPost post;
  };
  std::vector<Pending> this_round;
  std::vector<std::pair<PlayerId, PendingPost>> vector_posts;
  std::vector<DelayedPost> delayed;
  std::vector<std::uint8_t> threw(strategies.size(), 0);
  // Previous round's down set, for crash/recover *transition* events
  // (the injector exposes only the current state).
  std::vector<std::uint8_t> was_down(strategies.size(), 0);

  // Rounds are numbered from start_round_ (0 for a fresh scheduler) so
  // repeated run() calls share one monotone round clock; res.rounds
  // stays relative to this call.
  const std::size_t start = start_round_;
  std::size_t round = start;
  for (; round < start + max_rounds; ++round) {
    // The auditor's round clock brackets everything players do this
    // round (probes, billboard reads, result posts).
    if (auditor != nullptr) auditor->begin_round(round);
    if (rec != nullptr) rec->round_begin(round);
    if (injector != nullptr) {
      injector->begin_round(round);
      if (rec != nullptr) {
        for (PlayerId p = 0; p < strategies.size(); ++p) {
          const bool down = injector->is_down(p);
          if (down == (was_down[p] != 0)) continue;
          rec->fault(down ? obs::RecorderEvent::Kind::kCrash : obs::RecorderEvent::Kind::kRecover,
                     round, static_cast<std::uint32_t>(p));
          was_down[p] = down ? 1 : 0;
        }
      }
      // Delayed posts come due: publish before the view is built, so
      // they are visible exactly `delay` rounds late.
      for (auto it = delayed.begin(); it != delayed.end();) {
        if (it->due_round <= round) {
          board_.post(it->post.channel, it->p, it->post.vec);
          it = delayed.erase(it);
        } else {
          ++it;
        }
      }
    }

    const RoundView view(*oracle_, board_, posted_, round);

    bool any_active = false;
    std::size_t active_players = 0;
    this_round.clear();
    vector_posts.clear();
    for (PlayerId p = 0; p < strategies.size(); ++p) {
      auto& s = strategies[p];
      if (!s || threw[p] != 0 || s->done()) continue;
      if (injector != nullptr && injector->is_down(p)) {
        ++res.crash_skips;
        metrics.crash_skips.inc();
        // Only a player that will come back keeps the run alive.
        if (injector->may_recover(p)) any_active = true;
        continue;
      }
      any_active = true;
      ++active_players;
      try {
        const auto choice = s->next_probe(view);
        if (choice.has_value()) {
          // Probe immediately (the value is private to the player this
          // round); defer the public posting to the end of the round so
          // peers cannot read it early. With faults, retry transient
          // failures within the round up to the plan's budget — every
          // attempt is charged, so retry cost lands in the accounting.
          bool have_value = false;
          bool value = false;
          const std::size_t budget = injector != nullptr ? injector->plan().retry_budget : 0;
          for (std::size_t attempt = 0;; ++attempt) {
            try {
              value = oracle_->probe(p, *choice);
              have_value = true;
              break;
            } catch (const faults::ProbeFailedError&) {
              ++res.probe_failures;
              if (attempt >= budget) break;
              injector->note_retry(p);
            } catch (const faults::PlayerCrashedError&) {
              break;  // crashed mid-round: result lost, player down
            }
          }
          if (have_value) {
            s->on_result(*choice, value);
            this_round.push_back({p, *choice});
          }
        } else {
          ++res.idle_probes;
          metrics.idle.inc();
        }
        for (auto& post : s->posts()) {
          if (injector != nullptr) {
            if (injector->post_lost(p, faults::FaultInjector::channel_tag(post.channel))) {
              injector->note_post_dropped();
              ++res.posts_dropped;
              metrics.posts_dropped.inc();
              if (rec != nullptr) {
                rec->fault(obs::RecorderEvent::Kind::kPostDropped, round,
                           static_cast<std::uint32_t>(p));
              }
              continue;
            }
            if (const auto delay = injector->delay_for_post(p); delay > 0) {
              ++res.posts_delayed;
              metrics.posts_delayed.inc();
              if (rec != nullptr) {
                rec->fault(obs::RecorderEvent::Kind::kPostDelayed, round,
                           static_cast<std::uint32_t>(p), round + delay);
              }
              delayed.push_back({round + static_cast<std::size_t>(delay), p, std::move(post)});
              continue;
            }
          }
          vector_posts.emplace_back(p, std::move(post));
        }
      } catch (...) {
        // A buggy strategy must not take the round down with it: mark
        // it failed and keep driving everyone else.
        threw[p] = 1;
        res.failed_strategies.push_back(p);
        metrics.strategy_exceptions.inc();
      }
    }

    if (!any_active) {
      res.rounds = round - start;
      if (auditor != nullptr) auditor->end_round();
      if (rec != nullptr) rec->round_end(round, 0, 0);
      ++round;  // this round was touched (auditor/recorder brackets ran)
      break;
    }
    ++res.rounds;
    metrics.rounds.inc();
    obs::profile_cost(obs::Cost::kRounds, 1);
    metrics.active_players.observe(active_players);

    for (const auto& [p, o] : this_round) {
      posted_[p].set(o, true);
      if (auditor != nullptr) auditor->on_post(p, o);
      if (rec != nullptr) {
        rec->post(round, static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(o));
      }
    }
    for (auto& [p, post] : vector_posts) {
      board_.post(post.channel, p, post.vec);
    }
    if (auditor != nullptr) auditor->end_round();
    if (rec != nullptr) rec->round_end(round, active_players, this_round.size());
  }

  start_round_ = round;

  // Never-published delayed posts should not vanish silently.
  for (auto& d : delayed) board_.post(d.post.channel, d.p, d.post.vec);

  res.all_done = true;
  for (PlayerId p = 0; p < strategies.size(); ++p) {
    const auto& s = strategies[p];
    if ((s && !s->done()) || threw[p] != 0) {
      res.all_done = false;
      break;
    }
  }
  if (rec != nullptr) {
    // Lockstep-equivalent totals (oracle deltas, not loop iterations),
    // so `tmwia_cli replay` can verify them against the event stream.
    rec->run_end("scheduler", oracle_->rounds_since(inv_before),
                 oracle_->total_invocations() - total_before);
  }
  return res;
}

}  // namespace tmwia::billboard
