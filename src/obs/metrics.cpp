#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmp::obs {

Histogram::Histogram(double lowest) : lowest_(lowest) {
  if (!(lowest > 0.0)) {
    throw std::invalid_argument{"histogram lowest bound must be positive"};
  }
}

std::size_t Histogram::bucket_index(double v) const {
  if (!(v > lowest_)) return 0;
  const double log2v = std::log2(v / lowest_);
  const auto i = static_cast<std::size_t>(log2v) + 1;
  return std::min(i, kBuckets - 1);
}

double Histogram::bucket_upper_bound(std::size_t i) const {
  return lowest_ * std::exp2(static_cast<double>(i));
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[bucket_index(v)];
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      // Geometric midpoint of the bucket, clamped to the observed range.
      const double hi = bucket_upper_bound(i);
      const double lo = i == 0 ? lowest_ : bucket_upper_bound(i - 1);
      return std::clamp(std::sqrt(lo * hi), min_, max_);
    }
  }
  return max_;  // unreachable: counts always sum to count_
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::freeze_samplers() {
  for (auto& [name, counter] : counters_) counter.freeze();
  for (auto& [name, gauge] : gauges_) gauge.freeze();
}

}  // namespace dmp::obs
