#include "tmwia/obs/slo.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "tmwia/support/json.hpp"

namespace tmwia::obs {
namespace {

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const std::string& want) {
  throw std::invalid_argument("SloSpec: '" + std::string(key) + "' needs " + want + ", got '" +
                              std::string(value) + "'");
}

/// A latency bound: a finite number >= 0, the whole value parsed.
double parse_bound(std::string_view key, std::string_view value) {
  double v = 0.0;
  const auto* end = value.data() + value.size();
  const auto res = std::from_chars(value.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end || !std::isfinite(v) || v < 0.0) {
    bad_value(key, value, "a finite number >= 0");
  }
  return v;
}

/// A count: a whole number in [lo, hi], digits only.
std::uint64_t parse_count(std::string_view key, std::string_view value, std::uint64_t lo,
                          std::uint64_t hi, const std::string& want) {
  std::uint64_t v = 0;
  const auto* end = value.data() + value.size();
  const auto res = std::from_chars(value.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end || v < lo || v > hi) bad_value(key, value, want);
  return v;
}

}  // namespace

SloSpec SloSpec::parse(std::string_view spec) {
  constexpr auto kMaxCount = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  const auto threshold = [](std::string_view key, std::string_view value) {
    return static_cast<std::int64_t>(
        parse_count(key, value, 0, kMaxCount, "a whole number below 2^63"));
  };
  SloSpec out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("SloSpec: expected key=value, got '" + std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "p99_us") {
      out.p99_us = parse_bound(key, value);
    } else if (key == "staleness") {
      out.staleness = threshold(key, value);
    } else if (key == "degraded") {
      out.degraded = threshold(key, value);
    } else if (key == "audit") {
      out.audit = threshold(key, value);
    } else if (key == "window") {
      out.window = static_cast<std::size_t>(
          parse_count(key, value, 1, kMaxSloWindow,
                      "a whole number in [1, " + std::to_string(kMaxSloWindow) + "]"));
    } else {
      throw std::invalid_argument("SloSpec: unknown key '" + std::string(key) + "'");
    }
  }
  return out;
}

std::string SloAlert::to_json() const {
  std::string out = "{\"kind\":\"alert\",\"seq\":";
  out += std::to_string(seq);
  out += ",\"objective\":\"";
  out += objective;
  out += "\",\"observed\":";
  support::append_json_f64(out, observed);
  out += ",\"threshold\":";
  support::append_json_f64(out, threshold);
  out += ",\"window\":";
  out += std::to_string(window_count);
  out.push_back('}');
  return out;
}

std::string SloReport::to_json() const {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"evaluations\":";
  out += std::to_string(evaluations);
  out += ",\"objectives\":[";
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const auto& o = objectives[i];
    if (i != 0) out.push_back(',');
    out += "{\"name\":\"";
    out += o.name;
    out += "\",\"threshold\":";
    support::append_json_f64(out, o.threshold);
    out += ",\"worst\":";
    support::append_json_f64(out, o.worst);
    out += ",\"breaches\":";
    out += std::to_string(o.breaches);
    out += ",\"ok\":";
    out += o.ok ? "true" : "false";
    out.push_back('}');
  }
  out += "]}";
  return out;
}

SloWatchdog::SloWatchdog(SloSpec spec) : spec_(spec) {
  support::MutexLock lk(mu_);
  ring_.resize(std::max<std::size_t>(1, spec_.window));
}

void SloWatchdog::observe_request(std::uint64_t latency_us, std::uint64_t staleness_epochs,
                                  bool degraded) {
  support::MutexLock lk(mu_);
  ring_[ring_next_] = Sample{latency_us, staleness_epochs, degraded};
  ring_next_ = (ring_next_ + 1) % ring_.size();
  ++seen_;
}

void SloWatchdog::observe_audit_violations(std::uint64_t count) {
  support::MutexLock lk(mu_);
  audit_violations_ += count;
}

std::vector<SloAlert> SloWatchdog::evaluate(std::uint64_t seq) {
  support::MutexLock lk(mu_);
  ++evaluations_;
  const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(seen_, ring_.size()));
  std::vector<SloAlert> alerts;

  // Index order mirrors tracks_: p99_us, staleness, degraded, audit.
  const auto check = [&](std::size_t track, const char* name, double threshold,
                         double observed) {
    auto& t = tracks_[track];
    t.worst = std::max(t.worst, observed);
    if (observed > threshold) {
      ++t.breaches;
      alerts.push_back(SloAlert{seq, name, observed, threshold, n});
    }
  };

  if (spec_.p99_us >= 0 && n > 0) {
    std::vector<std::uint64_t> lat(n);
    for (std::size_t i = 0; i < n; ++i) lat[i] = ring_[i].latency_us;
    const std::size_t idx = (n * 99) / 100 >= n ? n - 1 : (n * 99) / 100;
    std::nth_element(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(idx), lat.end());
    check(0, "p99_us", spec_.p99_us, static_cast<double>(lat[idx]));
  }
  if (spec_.staleness >= 0 && n > 0) {
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, ring_[i].staleness);
    check(1, "staleness", static_cast<double>(spec_.staleness), static_cast<double>(worst));
  }
  if (spec_.degraded >= 0 && n > 0) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) bad += ring_[i].degraded ? 1 : 0;
    check(2, "degraded", static_cast<double>(spec_.degraded), static_cast<double>(bad));
  }
  if (spec_.audit >= 0) {
    check(3, "audit", static_cast<double>(spec_.audit), static_cast<double>(audit_violations_));
  }
  return alerts;
}

bool SloWatchdog::breached() const {
  support::MutexLock lk(mu_);
  for (const auto& t : tracks_) {
    if (t.breaches > 0) return true;
  }
  return false;
}

SloReport SloWatchdog::report() const {
  support::MutexLock lk(mu_);
  SloReport rep;
  rep.evaluations = evaluations_;
  const auto push = [&](std::size_t track, const char* name, double threshold) {
    const auto& t = tracks_[track];
    rep.objectives.push_back(
        SloReport::Objective{name, threshold, t.worst, t.breaches, t.breaches == 0});
    if (t.breaches > 0) rep.ok = false;
  };
  if (spec_.p99_us >= 0) push(0, "p99_us", spec_.p99_us);
  if (spec_.staleness >= 0) push(1, "staleness", static_cast<double>(spec_.staleness));
  if (spec_.degraded >= 0) push(2, "degraded", static_cast<double>(spec_.degraded));
  if (spec_.audit >= 0) push(3, "audit", static_cast<double>(spec_.audit));
  return rep;
}

}  // namespace tmwia::obs
