// Per-run telemetry hub: one windowed TimeSeries plus named quantile
// sketches, owned by the session harness and handed to components as raw
// channel/sketch pointers (null when telemetry is off — same contract as
// `obs::Histogram*`).  The hub itself knows nothing about links or TCP; it
// is plumbing for the recording points wired in `stream/session`.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "obs/telemetry/sketch.hpp"
#include "obs/telemetry/time_series.hpp"

namespace dmp::obs {

struct TelemetryConfig {
  bool enabled = false;
  // Window width for all time-series channels (simulated seconds).
  double window_s = 1.0;
  // Relative-error target for all sketches.
  double sketch_alpha = QuantileSketch::kDefaultAlpha;
  // Startup delay used for the windowed late-indicator channel (a packet is
  // "late" when its generation-to-delivery delay exceeds this).
  double late_tau_s = 4.0;
  // When set, write_artifacts() emits `<prefix>_telemetry.csv` and
  // `<prefix>_sketches.jsonl` under `output_dir`.
  bool write_artifacts = false;
  std::string output_dir = "bench_out";
  std::string prefix = "run";

  std::string telemetry_csv_path() const {
    return output_dir + "/" + prefix + "_telemetry.csv";
  }
  std::string sketches_path() const {
    return output_dir + "/" + prefix + "_sketches.jsonl";
  }
};

class SessionTelemetry {
 public:
  explicit SessionTelemetry(TelemetryConfig config);

  const TelemetryConfig& config() const { return config_; }
  TimeSeries& series() { return series_; }

  // Get-or-create; stable addresses (node-based map).
  QuantileSketch* sketch(const std::string& name);
  // Null if no such sketch was created.
  const QuantileSketch* find_sketch(const std::string& name) const;
  // Name-sorted view for reports.
  const std::map<std::string, QuantileSketch>& sketches() const {
    return sketches_;
  }

  // Emits the CSV/JSONL artifacts named by the config (no-op unless
  // `write_artifacts`).  Returns the number of files that failed to write.
  int write_artifacts();

 private:
  TelemetryConfig config_;
  TimeSeries series_;
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace dmp::obs
