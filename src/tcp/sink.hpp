// TCP receiver: reassembles segments, delivers app packets in order, and
// generates cumulative ACKs with the standard delayed-ACK policy (ack every
// second segment or after 100 ms; immediate duplicate ACKs on out-of-order
// arrivals; immediate ACK when a retransmission fills a gap).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/packet.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/time_series.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_config.hpp"

namespace dmp {

class TcpSink {
 public:
  // `deliver` receives (app_tag, arrival_time) for each segment the moment
  // TCP releases it in order to the application.
  using DeliverFn = std::function<void(std::int64_t app_tag, SimTime when)>;

  TcpSink(Scheduler& sched, FlowId flow, TcpConfig config,
          PacketHandler ack_out);

  void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }
  void on_data(const Packet& p);

  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t segments_received() const { return segments_received_; }
  std::uint64_t duplicate_segments() const { return duplicate_segments_; }
  std::uint64_t out_of_order_segments() const { return out_of_order_segments_; }

  // Registers `<prefix>.{segments_received,duplicate_segments,
  // out_of_order_segments}` counters (views over the accessors above, read
  // when the report is written) and a `<prefix>.reorder_buffer` sampler
  // gauge.  Optional; a no-op when never called.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix);

  // Records per-stream-packet receiver span events: segment arrival
  // (kSinkRx, possibly out of order) and in-order cumulative-ACK release
  // (kDeliver).  The gap between the two is reorder-buffer (head-of-line)
  // wait.  Optional; a no-op when never called.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  // Windowed reorder-buffer occupancy (head-of-line depth), sampled on
  // every arrival.  May be null.
  void set_telemetry(obs::TimeSeriesChannel* reorder_depth) {
    ts_reorder_ = reorder_depth;
  }

 private:
  void send_ack();
  void schedule_delack();
  void record_flight(obs::FlightEventKind kind, std::int64_t app_tag,
                     std::int64_t seq);

  Scheduler& sched_;
  FlowId flow_;
  TcpConfig config_;
  PacketHandler ack_out_;
  DeliverFn deliver_;

  std::int64_t rcv_nxt_ = 0;
  std::map<std::int64_t, std::int64_t> reorder_buffer_;  // seq -> app_tag
  bool ack_pending_ = false;
  EventHandle delack_timer_;

  std::uint64_t segments_received_ = 0;
  std::uint64_t duplicate_segments_ = 0;
  std::uint64_t out_of_order_segments_ = 0;

  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_reorder_ = nullptr;
};

}  // namespace dmp
