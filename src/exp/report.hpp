// Aggregated results of an experiment plan.
//
// The report splits into a deterministic part and a timing part.  The
// deterministic part (`aggregate_json()`) contains everything derived from
// the simulations — per-setting metric samples, confidence intervals,
// replication seeds and outcomes — and is byte-identical for a given plan
// at ANY worker-thread count: replications are seeded independently and
// collected in submission order, so parallelism cannot reorder or perturb
// it.  Wall-clock and thread count live in a separate timing block that
// `write_json()` appends; determinism tests compare `aggregate_json()`
// strings directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/divergence/divergence.hpp"
#include "obs/telemetry/sketch.hpp"
#include "stream/session.hpp"
#include "util/stats.hpp"

namespace dmp::exp {

// One replication's result, or the exception that replaced it.  A throwing
// replication is captured here (first ~200 chars of the message) instead
// of tearing down the whole sweep.
struct ReplicationOutcome {
  bool ok = false;
  std::string error;       // exception message when !ok
  std::uint64_t seed = 0;  // the derived replication seed actually used
  double wall_s = 0.0;     // excluded from aggregate_json()
  SessionResult result;    // meaningful only when ok
};

// Samples of one named metric across a setting's replications.
struct MetricSeries {
  std::string name;
  std::vector<double> samples;  // replication order
  ConfidenceInterval ci(double confidence = 0.95) const {
    return confidence_interval(samples, confidence);
  }
};

// Merged distribution of one named quantity across a setting's
// replications (e.g. per-packet delay).  Sketches are merged in
// replication-index order by the runner's ordered consumer, so the merged
// state — and its JSON — is identical at any DMP_THREADS.
struct MergedSketch {
  std::string name;
  obs::QuantileSketch sketch;
};

struct SettingSummary {
  std::string name;
  std::vector<std::uint64_t> seeds;   // per replication
  std::vector<std::string> failures;  // "" when the replication succeeded
  std::vector<MetricSeries> metrics;  // insertion order of first replication
  std::vector<MergedSketch> sketches;  // insertion order of first replication
  double wall_s = 0.0;                // sum of replication wall-clocks

  // Appends `value` to the series for `metric`, creating it on first use.
  void add_metric(const std::string& metric, double value);
  const MetricSeries* find(const std::string& metric) const;

  // Folds one replication's sketch into the setting-level merge.
  void merge_sketch(const std::string& sketch_name,
                    const obs::QuantileSketch& s);
  const obs::QuantileSketch* find_sketch(const std::string& sketch_name) const;
};

class ExperimentReport {
 public:
  std::string experiment;
  std::uint64_t root_seed = 0;
  std::size_t replications = 0;
  std::vector<SettingSummary> settings;
  // Model-vs-simulation residual series, filled by the bench after the
  // replications complete (the model curve is computed outside the
  // runner).  Deterministic, so it belongs to aggregate_json().
  std::vector<obs::DivergenceSeries> divergence;

  // Timing — never part of aggregate_json().
  std::size_t threads_used = 0;
  double wall_s = 0.0;

  // The deterministic portion as canonical JSON (fixed key order, %.17g
  // doubles).  Byte-identical across worker-thread counts.
  std::string aggregate_json() const;

  // Writes {"timing": {...}, "report": <aggregate>} to
  // `<bench_output_dir()>/BENCH_<experiment>.json` and returns the path.
  // Returns "" (after a stderr warning) if the file cannot be written.
  // When DMP_SLO names a spec file, the written report is evaluated
  // against it post-run (see evaluate_slo_env below).
  std::string write_json() const;
};

// The experiment runner's post-run SLO hook: when the DMP_SLO environment
// variable names a `.slo` spec, parses it, evaluates every rule against
// the report JSON at `report_path`, prints the verdict, and exits the
// process with status 3 on any violation (or an unreadable spec) — a
// gated bench must not be allowed to "pass" by losing its gate.  No-op
// when DMP_SLO is unset or empty.
void evaluate_slo_env(const std::string& report_path);

}  // namespace dmp::exp
