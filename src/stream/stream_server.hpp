// The common interface of the two streaming servers: DmpStreamingServer
// (DMP, and static streaming as its non-rerouting `weighted` policy) and
// StoredStreamingServer.  The session harness and the observability wiring
// talk to this interface only, so adding a scheme means implementing it
// and extending the factory — not editing a switch in every consumer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/time_series.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class RenoSender;
class Scheduler;
struct SessionConfig;

class StreamServer {
 public:
  virtual ~StreamServer() = default;

  // Stream packets the scheme accounts for: packets generated so far for
  // live schemes, the full video length for stored streaming (the whole
  // file exists up front).  This is the denominator of every late-fraction
  // metric.
  virtual std::int64_t packets_generated() const = 0;

  // Packets fetched by sender k since the start of the run.
  virtual std::uint64_t pulls(std::size_t k) const = 0;

  // Dispatch-policy tag for reports: the PathScheduler spec a DMP server
  // runs ("pull", "weighted", "parity-4", ...), "weighted" for static
  // streaming (the same split rule, pinned under faults).  Empty when the
  // scheme has no policy dimension.
  virtual const char* scheduler_name() const { return ""; }

  // Redundancy decisions executed by the dispatch policy (0 for schemes /
  // policies that never send a stream packet twice).
  virtual std::uint64_t duplicates_sent() const { return 0; }
  virtual std::uint64_t parity_sent() const { return 0; }

  // Registers the scheme's counters and sampler gauges under `prefix`.
  // Optional; a no-op when never called.
  virtual void attach_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) = 0;

  // Per-pull / per-generate span events.  Base-class no-op: schemes opt in.
  virtual void set_flight_recorder(obs::FlightRecorder*) {}
  // Windowed telemetry (either may be null): `backlog` samples the
  // scheme's undispatched-packet count (shared queue or remaining file) at
  // generation/dispatch instants;
  // `generated` gets one bump per stream packet entering the system.
  virtual void set_telemetry(obs::TimeSeriesChannel* /*backlog*/,
                             obs::TimeSeriesChannel* /*generated*/) {}
  // Windowed per-redundancy-decision telemetry (duplicate copies / parity
  // packets per window).  Base-class no-op: only policies that make such
  // decisions record anything.
  virtual void set_sched_telemetry(obs::TimeSeriesChannel* /*duplicates*/,
                                   obs::TimeSeriesChannel* /*parity*/) {}

  // Path-fault notifications from the fault injector (src/fault/): path k's
  // link just went down / came back up.  Base-class no-ops; schemes decide
  // their degradation story.  DMP and stored reclaim the dead sender's
  // never-transmitted share into the shared backlog (graceful degradation:
  // surviving paths carry it); static streaming deliberately does nothing —
  // its policy does not reroute on faults, so the dead path's share stalls
  // head-of-line until the link returns, which is exactly the fragility the
  // paper's Section-7 comparison punishes.
  virtual void on_path_down(std::size_t /*k*/) {}
  virtual void on_path_up(std::size_t /*k*/) {}

  // Gauge names (under `prefix`) a time-series probe should sample for this
  // scheme — the scheme knows whether its backlog is one shared queue or a
  // remaining-packets count.
  virtual std::vector<std::string> probe_columns(
      const std::string& prefix, std::size_t num_flows) const = 0;
};

// Builds the server for `config.scheme`: generation starts at `epoch` and
// lasts `duration` (live schemes) or dispatches the whole
// `mu * duration`-packet video from `epoch` on (stored).  `senders` must
// outlive the returned server.  The dispatch policy comes from
// `config.scheduler` (parsed and validated here).
std::unique_ptr<StreamServer> make_stream_server(
    const SessionConfig& config, Scheduler& sched,
    std::vector<RenoSender*> senders, SimTime epoch, SimTime duration);

// Overload with a pre-parsed PathScheduler spec (callers that already
// validated the spec — the session does, so a bad DMP_SCHED fails before
// any network is built).  The spec drives DMP sessions; static and stored
// schemes have their policy baked in and ignore it (static runs `weighted`
// over `config.static_weights`, without rerouting on faults).
std::unique_ptr<StreamServer> make_stream_server(
    const SessionConfig& config, Scheduler& sched,
    std::vector<RenoSender*> senders, SimTime epoch, SimTime duration,
    const SchedulerSpec& scheduler_spec);

}  // namespace dmp
