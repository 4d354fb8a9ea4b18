// DMP-streaming server (Fig. 2 of the paper).
//
// A CBR generator places packets into a shared server queue; each of the K
// TCP senders fetches from the head of the queue whenever it can send (for
// us: whenever its send buffer has space).  The paper's lock is implicit in
// the discrete-event setting — pulls are serialized by the scheduler.
// Dynamic load balancing emerges with no bandwidth probing: a path with
// higher achievable throughput drains its send buffer faster, so it pulls
// (and therefore carries) a larger share of the stream.
//
// The *decision* of what to send where is delegated to a PathScheduler
// (src/stream/scheduler/): the server owns the queue, the senders and all
// observability, translates sender/fault events into scheduler hooks, and
// executes the scheduler's decisions.  The default `pull` policy
// reproduces the paper's scheme decision-for-decision (golden-pinned);
// other policies (weighted, best_path, round_robin, redundant, parity-k)
// reuse this server core unchanged.  Static streaming (Section 7.4) is
// this server too: a `weighted` policy that does not reroute on faults.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "stream/stream_server.hpp"
#include "tcp/reno_sender.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class DmpStreamingServer : public StreamServer {
 public:
  // `senders` must outlive the server.  Generation begins at `start` and
  // runs for `duration`; `mu_pps` is the CBR playback rate in packets/s.
  // `scheduler` chooses the dispatch policy; null builds the compat `pull`
  // policy.  (Direct construction is the legacy path — prefer
  // make_stream_server, which wires the policy from the session config.)
  DmpStreamingServer(Scheduler& sched, double mu_pps,
                     std::vector<RenoSender*> senders, SimTime start,
                     SimTime duration,
                     std::unique_ptr<PathScheduler> scheduler = nullptr);

  std::int64_t packets_generated() const override { return next_number_; }
  std::size_t queue_length() const { return queue_.size(); }
  double mu() const { return mu_pps_; }
  // Peak backlog observed in the server queue (diagnostic: bounded by
  // mu * (time TCP lags behind generation)).
  std::size_t max_queue_length() const { return max_queue_; }
  // Packets fetched by sender k since the start of the run.
  std::uint64_t pulls(std::size_t k) const override { return pulls_[k]; }

  const char* scheduler_name() const override { return scheduler_->name(); }
  bool scheduler_needs_dedup() const { return scheduler_->needs_dedup(); }
  // Redundancy decisions executed (0 under non-redundant policies).
  std::uint64_t duplicates_sent() const override { return duplicates_sent_; }
  std::uint64_t parity_sent() const override { return parity_sent_; }

  // Registers `<prefix>.queue_depth` / `<prefix>.max_queue_depth` sampler
  // gauges, the `<prefix>.generated` counter, one `<prefix>.pulls.
  // path<k>` counter per sender, and the `<prefix>.sched.{duplicates,
  // parity}` redundancy counters; the counters are views over the
  // accessors above.  Optional; a no-op when never called.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) override;
  // Emits per-pull "pull" (and per-redundancy-decision "dup"/"parity")
  // events at kDebug severity.
  void set_event_log(obs::EventLog* log) override { event_log_ = log; }
  // Records per-stream-packet birth (kGenerate, with the shared-queue depth)
  // and sender fetch (kPull, with the chosen path) span events; redundancy
  // decisions add kSchedDecision events.  Optional; a no-op when never
  // called.
  void set_flight_recorder(obs::FlightRecorder* recorder) override {
    flight_ = recorder;
  }
  void set_telemetry(obs::TimeSeriesChannel* backlog,
                     obs::TimeSeriesChannel* generated) override {
    ts_backlog_ = backlog;
    ts_generated_ = generated;
  }
  // Windowed per-decision redundancy telemetry (either may be null).
  void set_sched_telemetry(obs::TimeSeriesChannel* duplicates,
                           obs::TimeSeriesChannel* parity) override {
    ts_duplicates_ = duplicates;
    ts_parity_ = parity;
  }

  // Path failure: reclaim the dead sender's never-transmitted segments into
  // the FRONT of the shared queue (they are the oldest outstanding packets)
  // and re-offer the backlog to the surviving senders.  While a path is
  // down its sender is skipped by every policy, so the shared-queue
  // discipline routes the whole stream over the survivors — the paper's
  // implicit load shifting, exercised under failure.  Both hooks return at
  // once when the policy does not reroute on faults (static streaming): the
  // dead path keeps its share, which stalls head-of-line behind the link.
  void on_path_down(std::size_t k) override;
  void on_path_up(std::size_t k) override;
  bool path_down(std::size_t k) const { return down_[k]; }
  // Packets reclaimed from dead senders over the run (diagnostic).
  std::uint64_t reclaimed() const { return reclaimed_; }

  // One shared backlog gauge.
  std::vector<std::string> probe_columns(
      const std::string& prefix, std::size_t /*num_flows*/) const override {
    return {prefix + ".queue_depth"};
  }

 private:
  void generate();
  void window_open(std::size_t k);
  // Refreshes the per-path snapshot and executes scheduler decisions until
  // pick() runs dry.
  void drain();
  void execute(const SchedDecision& decision);

  Scheduler& sched_;
  double mu_pps_;
  std::vector<RenoSender*> senders_;
  SimTime period_;
  SimTime end_;
  std::unique_ptr<PathScheduler> scheduler_;

  std::deque<std::int64_t> queue_;  // packet numbers awaiting a sender
  std::int64_t next_number_ = 0;
  std::size_t max_queue_ = 0;
  std::vector<std::uint64_t> pulls_;
  std::vector<bool> down_;  // paths currently failed (fault injector)
  std::uint64_t reclaimed_ = 0;
  std::uint64_t duplicates_sent_ = 0;
  std::uint64_t parity_sent_ = 0;
  std::vector<SchedPathState> path_state_;  // reused pick() scratch

  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_backlog_ = nullptr;
  obs::TimeSeriesChannel* ts_generated_ = nullptr;
  obs::TimeSeriesChannel* ts_duplicates_ = nullptr;
  obs::TimeSeriesChannel* ts_parity_ = nullptr;
};

}  // namespace dmp
