#include "tmwia/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "tmwia/support/json.hpp"

namespace tmwia::obs {
namespace {

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

}  // namespace

MetricsRegistry::MetricsRegistry(bool enabled) : enabled_(enabled) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Counter MetricsRegistry::counter(std::string_view name) {
  support::MutexLock lk(mu_);
  auto it = names_.find(name);
  if (it == names_.end()) {
    if (next_slot_ >= ShardSet::kMaxSlots) {
      throw std::length_error("MetricsRegistry: slot space exhausted");
    }
    MetricInfo info{Kind::kCounter, next_slot_, 1, nullptr};
    ++next_slot_;
    it = names_.emplace(std::string(name), std::move(info)).first;
  } else if (it->second.kind != Kind::kCounter) {
    throw std::invalid_argument("MetricsRegistry: '" + std::string(name) +
                                "' is not a counter");
  }
  return Counter(this, it->second.slot);
}

MetricsRegistry::Histogram MetricsRegistry::histogram(std::string_view name,
                                                      std::vector<std::uint64_t> bounds) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
    throw std::invalid_argument(
        "MetricsRegistry: histogram bounds must be non-empty and strictly increasing");
  }
  support::MutexLock lk(mu_);
  auto it = names_.find(name);
  if (it == names_.end()) {
    const auto slot_count = static_cast<std::uint32_t>(bounds.size() + 2);
    if (next_slot_ + slot_count > ShardSet::kMaxSlots) {
      throw std::length_error("MetricsRegistry: slot space exhausted");
    }
    MetricInfo info{Kind::kHistogram, next_slot_, slot_count,
                    std::make_unique<std::vector<std::uint64_t>>(std::move(bounds))};
    next_slot_ += slot_count;
    it = names_.emplace(std::string(name), std::move(info)).first;
  } else {
    if (it->second.kind != Kind::kHistogram) {
      throw std::invalid_argument("MetricsRegistry: '" + std::string(name) +
                                  "' is not a histogram");
    }
    if (*it->second.bounds != bounds) {
      throw std::invalid_argument("MetricsRegistry: histogram '" + std::string(name) +
                                  "' re-registered with different bounds");
    }
  }
  return Histogram(this, it->second.slot, it->second.bounds.get());
}

std::vector<std::uint64_t> MetricsRegistry::pow2_bounds(std::size_t k) {
  std::vector<std::uint64_t> b;
  b.reserve(k);
  for (std::size_t i = 0; i < k; ++i) b.push_back(std::uint64_t{1} << i);
  return b;
}

void MetricsRegistry::Histogram::observe(std::uint64_t v) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  const auto& bounds = *bounds_;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds.begin());
  reg_->slot_add(base_ + bucket, 1);
  reg_->slot_add(base_ + bounds.size() + 1, v);  // running sum slot
}

void MetricsRegistry::set_gauge(std::string_view name, std::int64_t value) {
  support::MutexLock lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<std::atomic<std::int64_t>>(0))
             .first;
  }
  it->second->store(value, std::memory_order_relaxed);
}

Snapshot MetricsRegistry::snapshot() const {
  support::MutexLock lk(mu_);
  Snapshot snap;
  const auto totals = shards_.totals(next_slot_);
  for (const auto& [name, info] : names_) {
    if (info.kind == Kind::kCounter) {
      snap.counters.emplace(name, totals[info.slot]);
    } else {
      HistogramData h;
      h.bounds = *info.bounds;
      h.buckets.resize(info.bounds->size() + 1);
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        h.buckets[b] = totals[info.slot + b];
      }
      h.sum = totals[info.slot + info.bounds->size() + 1];
      for (auto c : h.buckets) h.count += c;
      snap.histograms.emplace(name, std::move(h));
    }
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.emplace(name, cell->load(std::memory_order_relaxed));
  }
  return snap;
}

void MetricsRegistry::reset() {
  shards_.reset();
  support::MutexLock lk(mu_);
  for (const auto& [name, cell] : gauges_) cell->store(0, std::memory_order_relaxed);
}

void MetricsRegistry::restore(const Snapshot& snap) {
  reset();
  // Registration is idempotent and validates kind/bounds agreement, so
  // restoring over live handles is safe; the loads land in this
  // thread's shard and merge like any other writer's.
  for (const auto& [name, v] : snap.counters) {
    const Counter c = counter(name);
    if (v != 0) slot_add(c.slot_, v);
  }
  for (const auto& [name, h] : snap.histograms) {
    const Histogram hist = histogram(name, h.bounds);
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) {
        slot_add(hist.base_ + static_cast<std::uint32_t>(b), h.buckets[b]);
      }
    }
    if (h.sum != 0) {
      slot_add(hist.base_ + static_cast<std::uint32_t>(h.bounds.size()) + 1, h.sum);
    }
  }
  for (const auto& [name, v] : snap.gauges) set_gauge(name, v);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg(/*enabled=*/false);
  return reg;
}

// ---------------------------------------------------------------------------
// Snapshot

double HistogramData::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += buckets[i];
    if (static_cast<double>(cum) < target) continue;
    if (i >= bounds.size()) {
      // Overflow bucket: unbounded above, clamp to the last edge.
      return static_cast<double>(bounds.back());
    }
    const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double upper = static_cast<double>(bounds[i]);
    const double frac = (target - prev) / static_cast<double>(buckets[i]);
    return lower + (upper - lower) * frac;
  }
  return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out.push_back(',');
    first = false;
    support::append_json_string(out, name);
    out.push_back(':');
    append_u64(out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    support::append_json_string(out, name);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    support::append_json_string(out, name);
    out += ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_u64(out, h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_u64(out, h.buckets[i]);
    }
    out += "],\"sum\":";
    append_u64(out, h.sum);
    out += ",\"count\":";
    append_u64(out, h.count);
    out += ",\"p50\":";
    support::append_json_f64(out, h.percentile(0.50));
    out += ",\"p95\":";
    support::append_json_f64(out, h.percentile(0.95));
    out += ",\"p99\":";
    support::append_json_f64(out, h.percentile(0.99));
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace tmwia::obs
