#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace acex::obs {

// ---- Histogram -------------------------------------------------------

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // NaN and sub-unit values share the floor bucket
  const auto i =
      static_cast<std::size_t>(1.0 + std::floor(2.0 * std::log2(v)));
  return std::min(i, kBuckets - 1);
}

double Histogram::bucket_lower(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  return std::exp2(static_cast<double>(i - 1) / 2.0);
}

void Histogram::record(double v) noexcept {
  if (!enabled()) return;
  if (std::isnan(v) || v < 0) v = 0;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  detail::atomic_min(min_, v);
  detail::atomic_max(max_, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.buckets.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  // min_ idles at +inf so concurrent first samples race cleanly; an empty
  // histogram reports 0, not inf. A snapshot racing a record() may see its
  // min before its max, so min is clamped: min <= max always holds.
  s.max = max_.load(std::memory_order_relaxed);
  s.min =
      s.count ? std::min(min_.load(std::memory_order_relaxed), s.max) : 0.0;
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target && buckets[i] > 0) {
      // Geometric midpoint of the bucket, clamped to the observed range so
      // quantiles never stray outside [min, max].
      const double lo = Histogram::bucket_lower(i);
      const double hi = i + 1 < buckets.size()
                            ? Histogram::bucket_lower(i + 1)
                            : max;
      const double mid = lo > 0 ? std::sqrt(lo * std::max(hi, lo))
                                : hi / 2.0;
      return std::clamp(mid, min, max);
    }
  }
  return max;
}

// ---- MetricPoint / MetricsSnapshot -----------------------------------

std::string MetricPoint::full_name() const {
  if (label_key.empty()) return name;
  return name + "{" + label_key + "=\"" + label_value + "\"}";
}

const MetricPoint* MetricsSnapshot::find(
    std::string_view full_name) const noexcept {
  for (const MetricPoint& p : points) {
    if (p.full_name() == full_name) return &p;
  }
  return nullptr;
}

// ---- MetricsRegistry -------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(
    MetricPoint::Kind kind, std::string_view name, std::string_view label_key,
    std::string_view label_value) {
  if (name.empty()) throw ConfigError("obs: instrument name must not be empty");
  MetricPoint id;
  id.name = std::string(name);
  id.label_key = std::string(label_key);
  id.label_value = std::string(label_value);
  const std::string key = id.full_name();

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.name = std::move(id.name);
    entry.label_key = std::move(id.label_key);
    entry.label_value = std::move(id.label_value);
    switch (kind) {
      case MetricPoint::Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricPoint::Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricPoint::Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(key, std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw ConfigError("obs: instrument '" + key +
                      "' already registered as a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view label_key,
                                  std::string_view label_value) {
  return *entry_for(MetricPoint::Kind::kCounter, name, label_key, label_value)
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::string_view label_key,
                              std::string_view label_value) {
  return *entry_for(MetricPoint::Kind::kGauge, name, label_key, label_value)
              .gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view label_key,
                                      std::string_view label_value) {
  return *entry_for(MetricPoint::Kind::kHistogram, name, label_key,
                    label_value)
              .histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.points.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricPoint p;
    p.kind = entry.kind;
    p.name = entry.name;
    p.label_key = entry.label_key;
    p.label_value = entry.label_value;
    switch (entry.kind) {
      case MetricPoint::Kind::kCounter:
        p.counter = entry.counter->value();
        break;
      case MetricPoint::Kind::kGauge:
        p.gauge = entry.gauge->value();
        break;
      case MetricPoint::Kind::kHistogram:
        p.hist = entry.histogram->snapshot();
        break;
    }
    snap.points.push_back(std::move(p));
  }
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, entry] : entries_) {
    switch (entry.kind) {
      case MetricPoint::Kind::kCounter:
        entry.counter->reset();
        break;
      case MetricPoint::Kind::kGauge:
        entry.gauge->reset();
        break;
      case MetricPoint::Kind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace acex::obs
