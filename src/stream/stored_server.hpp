// Stored-video DMP streaming — the paper's Section-3 remark ("it is also
// applicable to stored-video streaming"), left as future work there and
// implemented here as an extension.
//
// The whole video exists before streaming starts, so the live-source
// constraint disappears: the server queue is the entire remaining video
// and the senders prefetch as far ahead as TCP allows.  The client buffer
// is unbounded (Section-2 assumption), so the prefetch depth is limited
// only by path throughput — the early-packet cap Nmax = mu*tau of live
// streaming no longer applies.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "stream/stream_server.hpp"
#include "tcp/reno_sender.hpp"

namespace dmp {

class StoredStreamingServer : public StreamServer {
 public:
  // Streams packets [0, total_packets) over the given senders.  Dispatch
  // begins at `start` (a scheduled event, so metrics / recorders attached
  // between construction and `start` observe the very first pulls); the
  // send rate is whatever TCP achieves.
  StoredStreamingServer(Scheduler& sched, std::int64_t total_packets,
                        std::vector<RenoSender*> senders,
                        SimTime start = SimTime::zero());

  std::int64_t packets_total() const { return total_; }
  std::int64_t packets_dispatched() const { return next_number_; }
  bool finished() const { return next_number_ == total_; }

  // The whole video exists before streaming starts, so every packet counts
  // toward the late-fraction denominator from the outset.
  std::int64_t packets_generated() const override { return total_; }
  std::uint64_t pulls(std::size_t k) const override { return pulls_[k]; }

  // Registers the `<prefix>.dispatched` counter (all pulls, redispatches
  // included), per-path `<prefix>.pulls.path<k>` counters — views over
  // pulls(k) — and a `<prefix>.remaining` sampler gauge.  Optional; a no-op
  // when never called.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) override;

  // Records sender fetch (kPull) span events.  Optional; call before the
  // `start` instant to capture the priming pulls.
  void set_flight_recorder(obs::FlightRecorder* recorder) override {
    flight_ = recorder;
  }
  // `generated` is bumped once per dispatched packet (the stored file has
  // no generation instant of its own); `backlog` samples remaining +
  // redispatch at each dispatch.
  void set_telemetry(obs::TimeSeriesChannel* backlog,
                     obs::TimeSeriesChannel* generated) override {
    ts_backlog_ = backlog;
    ts_generated_ = generated;
  }

  // Path failure: the dead sender's never-transmitted packet numbers move
  // to a redispatch queue served (in order, before fresh numbers) by the
  // surviving senders; the path is skipped until it comes back.
  void on_path_down(std::size_t k) override;
  void on_path_up(std::size_t k) override;
  bool path_down(std::size_t k) const { return down_[k]; }
  std::uint64_t reclaimed() const { return reclaimed_; }

  // Remaining-packets gauge (there is no generation-side backlog).
  std::vector<std::string> probe_columns(
      const std::string& prefix, std::size_t /*num_flows*/) const override {
    return {prefix + ".remaining"};
  }

 private:
  void pull_into(std::size_t k);

  Scheduler& sched_;
  std::vector<RenoSender*> senders_;
  std::int64_t total_;
  std::int64_t next_number_ = 0;
  std::vector<std::uint64_t> pulls_;
  std::vector<bool> down_;                 // fault-injector path state
  std::deque<std::int64_t> redispatch_;    // reclaimed numbers, oldest first
  std::uint64_t reclaimed_ = 0;

  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_backlog_ = nullptr;
  obs::TimeSeriesChannel* ts_generated_ = nullptr;
};

}  // namespace dmp
