#include "tmwia/obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "tmwia/support/json.hpp"

namespace tmwia::obs {
namespace {

/// Prometheus metric name: "tmwia_" prefix, dots/invalid chars -> '_'.
std::string prom_name(std::string_view name) {
  std::string out = "tmwia_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string prometheus_exposition(const Snapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out += p + "_bucket{le=\"" + std::to_string(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += p + "_sum " + std::to_string(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

TelemetryExporter::TelemetryExporter(TelemetryConfig cfg, MetricsRegistry& registry,
                                     Profiler* profiler, SloWatchdog* watchdog)
    : cfg_(std::move(cfg)), registry_(registry), profiler_(profiler), watchdog_(watchdog) {
  support::MutexLock lk(mu_);
  out_.open(cfg_.path, std::ios::out | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("TelemetryExporter: cannot open '" + cfg_.path + "'");
  }
}

TelemetryExporter::~TelemetryExporter() {
  try {
    finish();
  } catch (...) {
    // A failing sink must never take the service down with it.
  }
}

void TelemetryExporter::observe_request(std::string_view tenant, std::string_view op,
                                        std::uint64_t latency_us,
                                        std::uint64_t staleness_epochs, bool degraded) {
  support::MutexLock lk(mu_);
  if (finished_) return;
  window_.push_back(
      Pending{std::string(tenant), std::string(op), latency_us, staleness_epochs, degraded});
  ++total_requests_;
  if (++since_tick_ >= std::max<std::size_t>(1, cfg_.every)) tick_locked();
}

void TelemetryExporter::tick_locked() {
  const std::uint64_t seq = ++seq_;
  since_tick_ = 0;

  const Snapshot snap = registry_.snapshot();
  std::string line = "{\"kind\":\"snapshot\",\"seq\":";
  line += std::to_string(seq);
  line += ",\"requests\":";
  line += std::to_string(total_requests_);
  line += ",\"metrics\":";
  line += snap.to_json();
  if (cfg_.include_profile && profiler_ != nullptr) {
    line += ",\"profile\":";
    line += profiler_->report().to_json(profiler_->wall_sampling());
  }
  line.push_back('}');
  write_line_locked(line);

  // Tail exemplars: the K slowest requests of this tick.
  if (cfg_.exemplars > 0 && !window_.empty()) {
    const std::size_t k = std::min(cfg_.exemplars, window_.size());
    std::partial_sort(window_.begin(), window_.begin() + static_cast<std::ptrdiff_t>(k),
                      window_.end(), [](const Pending& a, const Pending& b) {
                        return a.latency_us > b.latency_us;
                      });
    for (std::size_t i = 0; i < k; ++i) {
      const Pending& p = window_[i];
      std::string ex = "{\"kind\":\"exemplar\",\"seq\":";
      ex += std::to_string(seq);
      ex += ",\"tenant\":";
      support::append_json_string(ex, p.tenant);
      ex += ",\"op\":";
      support::append_json_string(ex, p.op);
      ex += ",\"latency_us\":";
      ex += std::to_string(p.latency_us);
      ex += ",\"staleness\":";
      ex += std::to_string(p.staleness);
      ex += ",\"degraded\":";
      ex += p.degraded ? "true" : "false";
      ex.push_back('}');
      write_line_locked(ex);
    }
  }
  window_.clear();

  if (watchdog_ != nullptr) {
    for (const auto& alert : watchdog_->evaluate(seq)) {
      write_line_locked(alert.to_json());
      ++alerts_;
    }
  }

  if (cfg_.write_exposition) write_exposition_locked(snap);
  out_.flush();
}

void TelemetryExporter::finish() {
  support::MutexLock lk(mu_);
  if (finished_) return;
  tick_locked();
  if (watchdog_ != nullptr) {
    std::string line = "{\"kind\":\"slo_report\",\"seq\":";
    line += std::to_string(seq_);
    line += ",\"report\":";
    line += watchdog_->report().to_json();
    line.push_back('}');
    write_line_locked(line);
  }
  out_.flush();
  finished_ = true;
}

void TelemetryExporter::write_line_locked(const std::string& line) {
  out_ << line << '\n';
  ++records_;
}

void TelemetryExporter::write_exposition_locked(const Snapshot& snap) {
  // src/obs cannot depend on src/io, so the atomic swap is inlined:
  // write the whole exposition to a tmp sibling, then rename over the
  // final path — a scraper sees the old file or the new one, never a
  // torn mix.
  const std::string final_path = cfg_.path + ".prom";
  const std::string tmp_path = final_path + ".tmp";
  {
    // tmwia-lint: allow(durable-write) obs cannot link io; tmp+rename swap below keeps the artifact atomic
    std::ofstream prom(tmp_path, std::ios::out | std::ios::trunc);
    if (!prom) return;  // exposition is best-effort; the JSONL stream is the record
    prom << prometheus_exposition(snap);
  }
  // tmwia-lint: allow(durable-write) second half of the inlined atomic swap (see above)
  std::rename(tmp_path.c_str(), final_path.c_str());
}

std::uint64_t TelemetryExporter::ticks() const {
  support::MutexLock lk(mu_);
  return seq_;
}

std::uint64_t TelemetryExporter::records_written() const {
  support::MutexLock lk(mu_);
  return records_;
}

std::uint64_t TelemetryExporter::alerts_written() const {
  support::MutexLock lk(mu_);
  return alerts_;
}

}  // namespace tmwia::obs
