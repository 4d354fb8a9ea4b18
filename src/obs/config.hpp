// Knobs for attaching the observability layer to a run.  Disabled by
// default: a session with `enabled == false` creates no registry, attaches
// no counters, and schedules no probes, so the hot path is identical to an
// uninstrumented build.
#pragma once

#include <cstddef>
#include <string>

namespace dmp::obs {

struct ObsConfig {
  bool enabled = false;
  // Directory for the emitted artifacts; created if missing.  Files are
  // `<prefix>_report.json`, `<prefix>_probe.csv` and, with the flight
  // recorder, `<prefix>_trace.jsonl`.
  std::string output_dir = "bench_out";
  std::string prefix = "run";
  // Gauge-snapshot interval for the time-series probe (simulated seconds);
  // <= 0 disables the probe (counters and the report still run).
  double probe_interval_s = 1.0;
  // Growth caps on the probe CSV (0 = unlimited): once either limit is
  // reached, further samples are dropped and counted — the run report's
  // `probe_rows_dropped` scalar surfaces how much was cut.
  std::size_t probe_max_rows = 0;
  std::size_t probe_max_bytes = 0;
  // Per-packet lifecycle tracing (the flight recorder).  Orthogonal to
  // `enabled`: either toggle brings up the obs layer, but the JSONL trace
  // in `<prefix>_trace.jsonl` is written only when this one is set.
  bool flight_recorder = false;

  std::string report_path() const {
    return output_dir + "/" + prefix + "_report.json";
  }
  std::string probe_csv_path() const {
    return output_dir + "/" + prefix + "_probe.csv";
  }
  std::string trace_path() const {
    return output_dir + "/" + prefix + "_trace.jsonl";
  }
};

}  // namespace dmp::obs
