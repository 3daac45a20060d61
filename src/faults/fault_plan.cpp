#include "tmwia/faults/fault_plan.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "tmwia/rng/rng.hpp"

namespace tmwia::faults {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("FaultPlan::parse: " + what);
}

double parse_rate(std::string_view s, const std::string& clause) {
  double v = 0.0;
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  // Written so that NaN, which fails every comparison, is refused too.
  if (res.ec != std::errc{} || res.ptr != end || !(v >= 0.0 && v <= 1.0)) {
    bad("rate out of [0,1] in '" + clause + "'");
  }
  return v;
}

std::uint64_t parse_u64(std::string_view s, const std::string& clause) {
  std::uint64_t v = 0;
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) bad("bad integer in '" + clause + "'");
  return v;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  while (!spec.empty()) {
    const auto comma = spec.find(',');
    std::string_view clause = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{} : spec.substr(comma + 1);
    if (clause.empty()) continue;

    const auto eq = clause.find('=');
    if (eq == std::string_view::npos) bad("clause '" + std::string(clause) + "' has no '='");
    const std::string key(clause.substr(0, eq));
    const std::string_view value = clause.substr(eq + 1);
    const std::string clause_str(clause);

    if (key == "seed") {
      plan.seed = parse_u64(value, clause_str);
    } else if (key == "crash") {
      // crash=R@A or crash=R@A-B (round drawn uniformly in [A, B]).
      const auto at = value.find('@');
      plan.crash_rate = parse_rate(value.substr(0, at), clause_str);
      if (at != std::string_view::npos) {
        const auto range = value.substr(at + 1);
        const auto dash = range.find('-');
        plan.crash_round_lo = parse_u64(range.substr(0, dash), clause_str);
        plan.crash_round_hi = dash == std::string_view::npos
                                  ? plan.crash_round_lo
                                  : parse_u64(range.substr(dash + 1), clause_str);
        if (plan.crash_round_hi < plan.crash_round_lo) {
          bad("empty round range in '" + clause_str + "'");
        }
      }
    } else if (key == "recover") {
      plan.recover_after = parse_u64(value, clause_str);
    } else if (key == "probe") {
      plan.probe_fail_rate = parse_rate(value, clause_str);
    } else if (key == "retry") {
      plan.retry_budget = static_cast<std::size_t>(parse_u64(value, clause_str));
    } else if (key == "drop") {
      plan.post_drop_rate = parse_rate(value, clause_str);
    } else if (key == "delay") {
      // delay=R@K: delay w.p. R by K rounds.
      const auto at = value.find('@');
      if (at == std::string_view::npos) bad("'" + clause_str + "' needs RATE@ROUNDS");
      plan.post_delay_rate = parse_rate(value.substr(0, at), clause_str);
      plan.post_delay_rounds = parse_u64(value.substr(at + 1), clause_str);
    } else if (key == "kill") {
      plan.kill_at_round = parse_u64(value, clause_str);
    } else {
      bad("unknown clause '" + clause_str + "'");
    }
  }
  return plan;
}

CrashWindow FaultPlan::crash_window(PlayerId p) const {
  CrashWindow w;
  if (crash_rate > 0.0 && rng::hash_bernoulli(rng::mix(seed, 0xC2A5Full, p), crash_rate)) {
    const std::uint64_t span = crash_round_hi - crash_round_lo + 1;
    w.at = crash_round_lo + rng::mix(seed, 0x20F7Dull, p) % span;
    if (recover_after != kNever && w.at <= kNever - recover_after) {
      w.recover = w.at + recover_after;
    }
  }
  for (const auto& [player, window] : explicit_crashes) {
    if (player == p) w = window;
  }
  return w;
}

std::string FaultReport::to_string() const {
  std::ostringstream os;
  os << "probe_failures: " << probe_failures << '\n'
     << "retries: " << retries << '\n'
     << "fallback_reads: " << fallback_reads << '\n'
     << "posts_dropped: " << posts_dropped << '\n'
     << "posts_delayed: " << posts_delayed << '\n';
  const auto list = [&os](const char* name, const std::vector<PlayerId>& ids) {
    os << name << " (" << ids.size() << "):";
    for (const auto p : ids) os << ' ' << p;
    os << '\n';
  };
  list("crashed", crashed);
  list("recovered", recovered);
  list("degraded", degraded);
  list("orphaned", orphaned);
  return os.str();
}

}  // namespace tmwia::faults
