// One complete validation experiment (the paper's Section 5 setup):
// K network paths with Table-1 bottleneck configurations and FTP/HTTP
// background traffic, a multipath video stream (DMP or static), and
// per-path measurements of the parameters the model consumes
// (p_k, R_k, TO_k), exactly as Tables 2 and 3 report them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/background.hpp"
#include "obs/config.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "sim/profiler.hpp"
#include "stream/trace.hpp"
#include "tcp/tcp_config.hpp"

namespace dmp {

// kStored streams a pre-recorded video of mu*duration packets with the DMP
// pull discipline but no live-source constraint (Section-3 extension).
enum class StreamScheme { kDmp, kStatic, kStored };

// Video flows default to per-packet ACKs — the ns-2 TCPSink default the
// paper's simulations would have used (delayed ACKs remain available).
inline TcpConfig default_video_tcp() {
  TcpConfig t;
  t.delayed_ack = false;
  return t;
}

struct SessionConfig {
  // One entry per independent path (Fig. 3).  For correlated paths (Fig. 6)
  // set `correlated = true` and provide exactly one entry: all `num_flows`
  // video flows then share that single bottleneck.
  std::vector<PathConfig> path_configs;
  bool correlated = false;
  std::size_t num_flows = 2;
  StreamScheme scheme = StreamScheme::kDmp;
  double mu_pps = 50.0;
  double duration_s = 3000.0;
  // Background warm-up before video generation starts; arrival timestamps
  // are reported relative to the video epoch.
  double warmup_s = 20.0;
  // Extra simulated time after generation ends so in-flight video packets
  // drain to the client.
  double drain_s = 60.0;
  std::uint64_t seed = 1;
  TcpConfig video_tcp = default_video_tcp();
  std::vector<double> static_weights{};  // empty = even split
  // DMP dispatch policy (src/stream/scheduler/ spec grammar, the DMP_SCHED
  // bench knob): pull | weighted[:w0,w1,...] | best_path | round_robin |
  // redundant | parity-<k>.  Parsed and validated before any network is
  // built; the default reproduces the paper's scheme byte-identically.
  // Redundant policies route client deliveries through a RedundancyFilter
  // for exactly-once trace recording.  Static / stored schemes ignore it.
  std::string scheduler = "pull";
  // Bottleneck queue discipline (src/net/qdisc/ spec grammar, the
  // DMP_QDISC bench knob): droptail | pie[:target_ms[,tupdate_ms]] |
  // fq_pie[:flows] | codel[:target_ms[,interval_ms]].  Parsed and
  // validated before any network is built; applied to EVERY path's
  // bottleneck, with per-path early-drop RNG seeds derived from `seed`
  // (seed-stream kind 18, disjoint from all session randomness).  The
  // default reproduces the paper's drop-tail bottlenecks byte-identically.
  std::string qdisc = "droptail";
  // DES event-queue backend (the DMP_DES bench knob): calendar | heap.
  // `calendar` names the default bucketed queue (a monotone radix heap;
  // the spec keeps the name of the calendar queue it replaced) and pops in
  // an order bit-identical to the binary heap ((when, seq) tie-breaking —
  // docs/DES_ENGINE.md);
  // `heap` keeps the std::push_heap baseline selectable for differential
  // runs and benchmarks.  Parsed and validated before any network is built.
  std::string des = "calendar";
  // Fault schedule (src/fault/ spec grammar, e.g.
  // "20 link_down path1; 25 link_up path1"), times relative to the video
  // epoch.  Targets name paths ("path<k>"); link faults hit path k's
  // dumbbell (forward + reverse bottleneck for outages) and notify the
  // streaming server so DMP reclaims the dead sender's unsent share.  In
  // correlated sessions the single path is "path0" and an outage notifies
  // every flow.  Empty (the default) constructs no injector and schedules
  // nothing: byte-identical to a build without the fault layer.
  std::string faults{};
  // Observability: when `obs.enabled`, the run attaches a metrics registry
  // to every layer (links, TCP agents, server, scheduler, client), samples
  // gauges into `<prefix>_probe.csv` every `obs.probe_interval_s`, and
  // writes a `<prefix>_report.json` summary at the end of the run.  Off by default:
  // nothing is allocated or scheduled and the hot path is unchanged.
  obs::ObsConfig obs{};
  // Streaming telemetry (src/obs/telemetry): windowed time-series channels
  // on links / TCP / server / client plus a client delay quantile sketch.
  // Independent of `obs` — off by default, and when off every recording
  // pointer stays null so the hot path is unchanged.
  obs::TelemetryConfig telemetry{};
  // DES self-profiling: per-category executed-event counts, written into
  // `SessionResult::profile` (deterministic; safe for golden artifacts).
  bool profile = false;
  // Additionally bracket every callback with steady_clock reads to charge
  // wall nanoseconds per category.  Non-deterministic; report-only.
  bool profile_wall_time = false;
};

// Per-video-flow path statistics (one row of Table 2 / Table 3).
struct PathMeasurement {
  double loss_rate = 0.0;   // p_k: drops/arrivals at the bottleneck
  double rtt_s = 0.0;       // R_k: mean Karn-filtered RTT sample
  double to_ratio = 0.0;    // TO_k = R_TO / R_k
  double share = 0.0;       // fraction of the stream carried by this path
  // AQM controller discards at this path's bottleneck, all flows (0 on
  // droptail paths; a subset of the drops behind loss_rate's numerator).
  std::uint64_t aqm_early_drops = 0;
  TcpSenderStats tcp{};
};

struct SessionResult {
  StreamTrace trace;
  std::vector<PathMeasurement> paths;
  std::int64_t packets_generated = 0;
  std::uint64_t events_executed = 0;
  // The scheduler's other lifetime counters at the end of the run:
  // popped-and-skipped timer keys, keys ever claimed, pending high water.
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_scheduled = 0;
  std::size_t max_events_pending = 0;
  // Fault events replayed from `config.faults` (0 for fault-free runs).
  std::uint64_t fault_events_fired = 0;

  // Redundancy accounting (all 0 unless a needs-dedup scheduler ran):
  // extra wire copies / parity packets the server dispatched, and what the
  // client-side RedundancyFilter did with the arrivals.
  std::uint64_t duplicates_sent = 0;
  std::uint64_t parity_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t parity_recovered = 0;

  // Populated only when the session ran with `obs.enabled`.  Gauges are
  // frozen to their end-of-run values (the instrumented objects are gone).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::string report_path;
  std::string probe_csv_path;

  // Populated only when the session ran with `obs.flight_recorder`: the
  // in-memory per-packet lifecycle trace and the JSONL path it was written
  // to (feed either to `obs::TraceAnalyzer` / `trace_query`).
  std::shared_ptr<obs::FlightRecorder> flight;
  std::string trace_path;

  // Populated only when the session ran with `telemetry.enabled`: the
  // windowed channels and quantile sketches, plus the artifact paths when
  // `telemetry.write_artifacts` was also set (empty otherwise).
  std::shared_ptr<obs::SessionTelemetry> telemetry;
  std::string telemetry_csv_path;
  std::string sketches_path;

  // Per-category executed-event counts (populated when `config.profile`).
  SchedProfile profile{};

  // Probe rows discarded by the `obs.probe_max_rows` / `obs.probe_max_bytes`
  // caps (0 when uncapped or when no probe ran).
  std::uint64_t probe_rows_dropped = 0;

  // Artifacts (events/probe/report/trace) that failed to reach disk.
  // Writers warn on stderr and the count lands in the report's
  // `meta.io_errors` / `meta.status`; the run itself never aborts.
  int artifact_write_failures = 0;

  SessionResult() : trace(1.0) {}
};

SessionResult run_session(const SessionConfig& config);

// Backlogged-probe measurement of a path's model parameters.
//
// Section 2.2 defines sigma_k as the throughput of a *backlogged* TCP
// source, and the analytical model's (p, R, TO) parameterize exactly that
// achievable-throughput process.  Under drop-tail queues an app-limited
// video stream measures a noticeably higher p than a backlogged flow on
// the same path (its post-idle bursts land on full queues), so feeding the
// model video-stream-measured parameters biases it pessimistic.  The probe
// runs `num_probe_flows` backlogged flows (flow ids 0..n-1, matching the
// video flows they stand in for) against the configuration's background
// traffic and reports each flow's parameters.
struct BackloggedProbe {
  double loss_rate = 0.0;
  double rtt_s = 0.0;
  double to_ratio = 0.0;
  double throughput_pps = 0.0;
};

// `qdisc` puts the probe's bottleneck under the same discipline as the
// session it parameterizes (spec grammar as SessionConfig::qdisc), so the
// model sees the loss/RTT process AQM actually produces.
std::vector<BackloggedProbe> measure_backlogged_paths(
    const PathConfig& config, std::size_t num_probe_flows, std::uint64_t seed,
    double duration_s = 1500.0,
    const TcpConfig& probe_tcp = default_video_tcp(),
    const std::string& qdisc = "droptail");

}  // namespace dmp
