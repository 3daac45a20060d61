#include "tmwia/faults/fault_injector.hpp"

#include <csignal>
#include <stdexcept>

#include "tmwia/rng/rng.hpp"

namespace tmwia::faults {
namespace {

void set_flag(std::vector<std::atomic<std::uint8_t>>& flags, PlayerId p) {
  flags[p].store(1, std::memory_order_relaxed);
}

std::vector<PlayerId> flagged(const std::vector<std::atomic<std::uint8_t>>& flags) {
  std::vector<PlayerId> out;
  for (PlayerId p = 0; p < flags.size(); ++p) {
    if (flags[p].load(std::memory_order_relaxed) != 0) out.push_back(p);
  }
  return out;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::size_t n_players)
    : plan_(std::move(plan)),
      n_(n_players),
      windows_(n_players),
      attempts_(n_players),
      post_seq_(n_players),
      down_(n_players),
      degraded_(n_players),
      orphaned_(n_players),
      was_crashed_(n_players),
      was_recovered_(n_players) {
  for (PlayerId p = 0; p < n_; ++p) windows_[p] = plan_.crash_window(p);
}

FaultInjector::Attempt FaultInjector::on_probe_attempt(PlayerId p) {
  const auto attempt = attempts_[p].fetch_add(1, std::memory_order_relaxed);
  if (!round_clock_.load(std::memory_order_relaxed)) {
    // Attempt-clock mode: crash at the plan's round, permanently (the
    // centrally-simulated phases have no global clock to recover on).
    if (attempt >= windows_[p].at && down_[p].load(std::memory_order_relaxed) == 0) {
      set_flag(down_, p);
      set_flag(was_crashed_, p);
    }
  }
  if (is_down(p)) return Attempt::kCrashed;
  if (plan_.probe_fail_rate > 0.0 &&
      rng::hash_bernoulli(rng::mix(plan_.seed ^ 0xFA17ull, p, attempt), plan_.probe_fail_rate)) {
    probe_failures_.fetch_add(1, std::memory_order_relaxed);
    return Attempt::kFail;
  }
  return Attempt::kOk;
}

void FaultInjector::note_retry(PlayerId p) {
  (void)p;
  retries_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::mark_degraded(PlayerId p) { set_flag(degraded_, p); }

void FaultInjector::note_fallback_read(PlayerId p) {
  (void)p;
  fallback_reads_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::note_orphan(PlayerId p) { set_flag(orphaned_, p); }

void FaultInjector::begin_round(std::uint64_t round) {
  round_clock_.store(true, std::memory_order_relaxed);
  for (PlayerId p = 0; p < n_; ++p) {
    const auto& w = windows_[p];
    const bool down_now = round >= w.at && round < w.recover;
    const bool was_down = down_[p].load(std::memory_order_relaxed) != 0;
    if (down_now && !was_down) {
      set_flag(down_, p);
      set_flag(was_crashed_, p);
    } else if (!down_now && was_down && round >= w.recover) {
      down_[p].store(0, std::memory_order_relaxed);
      set_flag(was_recovered_, p);
    }
  }
}

bool FaultInjector::post_lost(PlayerId p, std::uint64_t tag) const {
  return plan_.post_drop_rate > 0.0 &&
         rng::hash_bernoulli(rng::mix(plan_.seed ^ 0xD209ull, p, tag), plan_.post_drop_rate);
}

void FaultInjector::note_post_dropped() {
  posts_dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FaultInjector::delay_for_post(PlayerId p) {
  if (plan_.post_delay_rate <= 0.0 || plan_.post_delay_rounds == 0) return 0;
  const auto seq = post_seq_[p].fetch_add(1, std::memory_order_relaxed);
  if (!rng::hash_bernoulli(rng::mix(plan_.seed ^ 0xDE1A1ull, p, seq), plan_.post_delay_rate)) {
    return 0;
  }
  posts_delayed_.fetch_add(1, std::memory_order_relaxed);
  return plan_.post_delay_rounds;
}

FaultReport FaultInjector::report() const {
  FaultReport r;
  r.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  r.retries = retries_.load(std::memory_order_relaxed);
  r.fallback_reads = fallback_reads_.load(std::memory_order_relaxed);
  r.posts_dropped = posts_dropped_.load(std::memory_order_relaxed);
  r.posts_delayed = posts_delayed_.load(std::memory_order_relaxed);
  r.crashed = flagged(was_crashed_);
  r.recovered = flagged(was_recovered_);
  r.degraded = flagged(degraded_);
  r.orphaned = flagged(orphaned_);
  return r;
}

void FaultInjector::maybe_kill(std::uint64_t cum_round) {
  if (plan_.kill_at_round == kNever || cum_round < plan_.kill_at_round) return;
  // Die like a real shard: SIGKILL runs no handlers, no destructors,
  // flushes nothing. Anything not already checkpointed is gone.
  (void)std::raise(SIGKILL);
}

namespace {

std::vector<std::uint64_t> load_all(const std::vector<std::atomic<std::uint64_t>>& cells) {
  std::vector<std::uint64_t> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i] = cells[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<std::uint8_t> load_flags(const std::vector<std::atomic<std::uint8_t>>& cells) {
  std::vector<std::uint8_t> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i] = cells[i].load(std::memory_order_relaxed);
  }
  return out;
}

template <typename T>
void store_all(std::vector<std::atomic<T>>& cells, const std::vector<T>& values) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].store(values[i], std::memory_order_relaxed);
  }
}

}  // namespace

FaultInjector::State FaultInjector::export_state() const {
  State st;
  st.attempts = load_all(attempts_);
  st.post_seq = load_all(post_seq_);
  st.down = load_flags(down_);
  st.degraded = load_flags(degraded_);
  st.orphaned = load_flags(orphaned_);
  st.was_crashed = load_flags(was_crashed_);
  st.was_recovered = load_flags(was_recovered_);
  st.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  st.retries = retries_.load(std::memory_order_relaxed);
  st.fallback_reads = fallback_reads_.load(std::memory_order_relaxed);
  st.posts_dropped = posts_dropped_.load(std::memory_order_relaxed);
  st.posts_delayed = posts_delayed_.load(std::memory_order_relaxed);
  return st;
}

void FaultInjector::restore_state(const State& st) {
  if (st.attempts.size() != n_ || st.post_seq.size() != n_ || st.down.size() != n_ ||
      st.degraded.size() != n_ || st.orphaned.size() != n_ || st.was_crashed.size() != n_ ||
      st.was_recovered.size() != n_) {
    throw std::invalid_argument("FaultInjector::restore_state: player count mismatch");
  }
  store_all(attempts_, st.attempts);
  store_all(post_seq_, st.post_seq);
  store_all(down_, st.down);
  store_all(degraded_, st.degraded);
  store_all(orphaned_, st.orphaned);
  store_all(was_crashed_, st.was_crashed);
  store_all(was_recovered_, st.was_recovered);
  probe_failures_.store(st.probe_failures, std::memory_order_relaxed);
  retries_.store(st.retries, std::memory_order_relaxed);
  fallback_reads_.store(st.fallback_reads, std::memory_order_relaxed);
  posts_dropped_.store(st.posts_dropped, std::memory_order_relaxed);
  posts_delayed_.store(st.posts_delayed, std::memory_order_relaxed);
}

std::uint64_t FaultInjector::channel_tag(std::string_view channel) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : channel) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace tmwia::faults
