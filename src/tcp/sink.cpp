#include "tcp/sink.hpp"

namespace dmp {

TcpSink::TcpSink(Scheduler& sched, FlowId flow, TcpConfig config,
                 PacketHandler ack_out)
    : sched_(sched), flow_(flow), config_(config), ack_out_(std::move(ack_out)) {}

void TcpSink::attach_metrics(obs::MetricsRegistry& registry,
                             const std::string& prefix) {
  registry.counter(prefix + ".segments_received")
      .set_sampler([this] { return segments_received_; });
  registry.counter(prefix + ".duplicate_segments")
      .set_sampler([this] { return duplicate_segments_; });
  registry.counter(prefix + ".out_of_order_segments")
      .set_sampler([this] { return out_of_order_segments_; });
  registry.gauge(prefix + ".reorder_buffer").set_sampler([this] {
    return static_cast<double>(reorder_buffer_.size());
  });
}

void TcpSink::record_flight(obs::FlightEventKind kind, std::int64_t app_tag,
                            std::int64_t seq) {
  obs::FlightEvent e;
  e.t_ns = sched_.now().ns();
  e.kind = kind;
  e.packet = app_tag;
  e.path = static_cast<std::int32_t>(flow_);
  e.seq = seq;
  e.queue = static_cast<std::int64_t>(reorder_buffer_.size());
  flight_->record(e);
}

void TcpSink::on_data(const Packet& p) {
  ++segments_received_;
  if (ts_reorder_) {
    ts_reorder_->add(sched_.now(),
                     static_cast<double>(reorder_buffer_.size()));
  }
  if (flight_ && p.app_tag >= 0) {
    record_flight(obs::FlightEventKind::kSinkRx, p.app_tag, p.seq);
  }

  if (p.seq == rcv_nxt_) {
    const bool filled_gap = !reorder_buffer_.empty();
    if (flight_ && p.app_tag >= 0) {
      record_flight(obs::FlightEventKind::kDeliver, p.app_tag, p.seq);
    }
    if (deliver_) deliver_(p.app_tag, sched_.now());
    ++rcv_nxt_;
    // Release any buffered segments that are now in order.
    auto it = reorder_buffer_.begin();
    while (it != reorder_buffer_.end() && it->first == rcv_nxt_) {
      if (flight_ && it->second >= 0) {
        record_flight(obs::FlightEventKind::kDeliver, it->second, it->first);
      }
      if (deliver_) deliver_(it->second, sched_.now());
      ++rcv_nxt_;
      it = reorder_buffer_.erase(it);
    }

    if (!config_.delayed_ack || filled_gap) {
      send_ack();
    } else if (ack_pending_) {
      send_ack();  // every second in-order segment
    } else {
      ack_pending_ = true;
      schedule_delack();
    }
    return;
  }

  if (p.seq > rcv_nxt_) {
    ++out_of_order_segments_;
    reorder_buffer_.emplace(p.seq, p.app_tag);
    send_ack();  // duplicate ACK, immediately
    return;
  }

  // Segment below rcv_nxt_: spurious retransmission.
  ++duplicate_segments_;
  send_ack();
}

void TcpSink::send_ack() {
  ack_pending_ = false;
  delack_timer_.cancel();
  Packet ack;
  ack.flow = flow_;
  ack.kind = PacketKind::kAck;
  ack.seq = rcv_nxt_;
  ack.size_bytes = kAckPacketBytes;
  // Diagnostic timestamp, only consumed by trace tooling — skip the write
  // on uninstrumented hot paths.
  if (flight_) ack.injected = sched_.now();
  ack_out_(ack);
}

void TcpSink::schedule_delack() {
  delack_timer_.cancel();
  delack_timer_ = sched_.schedule_after(config_.delack_timeout, [this] {
    if (ack_pending_) send_ack();
  }, EventCategory::kTcpTimer);
}

}  // namespace dmp
