// Metrics registry: named counters, gauges and log-bucketed histograms.
//
// Components register views over the stats they already keep: counters and
// gauges can pull their value on demand through a sampler callback, read
// only when a report or probe row is written, so the hot path pays nothing
// for a registry.  Where a count exists nowhere else, the component holds
// a plain pointer into the registry (null when no observer is attached) and
// pays one branch and one increment — there is no locking, string hashing
// or allocation anywhere near packet processing.  Sampler gauges are what
// `Probe` snapshots into time series.  The registry owns every metric and
// guarantees stable addresses for the lifetime of the registry (node-based
// map storage).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace dmp::obs {

// Monotonic event counter (retransmits, drops, pulls, ...).  Either
// incremented explicitly or a view: a sampler that reads a count the
// instrumented object already keeps, so the hot path bumps one plain field
// and the registry holds no second copy of it.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void set_sampler(std::function<std::uint64_t()> fn) {
    sampler_ = std::move(fn);
  }

  std::uint64_t value() const { return sampler_ ? sampler_() : value_; }
  // Replaces a sampler with its current value; used before a registry
  // outlives the objects its samplers point into.
  void freeze() {
    if (sampler_) {
      value_ = sampler_();
      sampler_ = nullptr;
    }
  }

 private:
  std::uint64_t value_ = 0;
  std::function<std::uint64_t()> sampler_;
};

// Point-in-time value (cwnd, queue depth, RTT estimate, ...).  Either set
// explicitly or backed by a sampler that reads the instrumented object.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    sampler_ = nullptr;
  }
  void set_sampler(std::function<double()> fn) { sampler_ = std::move(fn); }

  double value() const { return sampler_ ? sampler_() : value_; }
  bool has_sampler() const { return sampler_ != nullptr; }
  // Replaces a sampler with its current value; used before a registry
  // outlives the objects its samplers point into.
  void freeze() {
    if (sampler_) {
      value_ = sampler_();
      sampler_ = nullptr;
    }
  }

 private:
  double value_ = 0.0;
  std::function<double()> sampler_;
};

// Log2-bucketed histogram for positive reals (per-packet delay, ACK
// inter-arrival).  Bucket i >= 1 covers [lowest*2^(i-1), lowest*2^i);
// bucket 0 collects everything at or below `lowest`.  Exact count/sum/
// min/max are tracked alongside, so means are exact and only quantiles
// carry bucket-resolution error (a factor of sqrt(2) at worst).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  explicit Histogram(double lowest = 1e-6);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  // Approximate quantile (geometric midpoint of the target bucket, clamped
  // to the observed range); 0 when empty.
  double quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }
  double bucket_upper_bound(std::size_t i) const;

 private:
  std::size_t bucket_index(double v) const;

  double lowest_;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Name -> metric map.  Lookup is get-or-create; iteration is sorted by
// name, which keeps every emitted report deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) {
    return histograms_.try_emplace(name).first->second;
  }

  // Lookup without creating; null when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // Evaluates and detaches every counter and gauge sampler; call before
  // the registry outlives the instrumented objects.
  void freeze_samplers();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dmp::obs
