#include "net/link.hpp"

#include <stdexcept>

namespace dmp {

Link::Link(Scheduler& sched, LinkConfig config)
    : sched_(sched),
      config_(config),
      base_config_(config),
      qdisc_(make_queue_discipline(config.qdisc, config.buffer_packets)),
      aqm_(!config.qdisc.droptail()) {
  if (!aqm_) droptail_ = static_cast<DropTailQdisc*>(qdisc_.get());
  if (config_.bandwidth_bps <= 0) {
    throw std::invalid_argument{"link bandwidth must be positive"};
  }
  qdisc_->set_drain_rate(config_.bandwidth_bps);
  qdisc_->set_drop_handler([this](const Packet& victim,
                                  QdiscDropReason reason) {
    on_qdisc_drop(victim, reason);
  });
  // Devirtualized dispatch for the two event kinds this link fires; both
  // skip the scheduler's callable slab entirely.
  tx_done_port_id_ =
      sched_.register_port(&Link::tx_done_port, this, EventCategory::kLinkTx);
  delivery_port_id_ = sched_.register_port(&Link::delivery_port, this,
                                           EventCategory::kLinkDelivery);
}

void Link::record_flight(const Packet& p, obs::FlightEventKind kind,
                         std::size_t queue_depth, obs::DropCause cause) {
  obs::FlightEvent e;
  e.t_ns = sched_.now().ns();
  e.kind = kind;
  e.packet = p.app_tag;
  e.path = static_cast<std::int32_t>(p.flow);
  e.hop = flight_hop_;
  e.seq = p.seq;
  e.queue = static_cast<std::int64_t>(queue_depth);
  e.drop = cause;
  flight_->record(e);
}

// Every congestion discard — the arriving packet on a full/early-dropping
// queue, a different victim (FQ-PIE overlimit) or a queued head (CoDel) —
// funnels through here (after the qdisc tallied it), so per-flow counters,
// telemetry, the event log and the flight recorder see AQM drops exactly
// the way they saw drop-tail ones.  The drop-cause annotations are gated
// on `aqm_`: a droptail link's artifacts stay byte-identical to the
// pre-qdisc implementation.
void Link::on_qdisc_drop(const Packet& victim, QdiscDropReason reason) {
  ++per_flow_[victim.flow].drops;
  if (ts_drops_) ts_drops_->bump(sched_.now());
  if (event_log_ && event_log_->enabled(obs::Severity::kWarn)) {
    if (aqm_) {
      event_log_->record(
          sched_.now().to_seconds(), obs::Severity::kWarn, "drop",
          {obs::EventField::num("flow", victim.flow),
           obs::EventField::num("seq", victim.seq),
           obs::EventField::num("queue", qdisc_->len()),
           obs::EventField::text("cause",
                                 std::string(qdisc_drop_reason_name(reason)))});
    } else {
      event_log_->record(sched_.now().to_seconds(), obs::Severity::kWarn,
                         "drop",
                         {obs::EventField::num("flow", victim.flow),
                          obs::EventField::num("seq", victim.seq),
                          obs::EventField::num("queue", qdisc_->len())});
    }
  }
  if (flight_ && victim.app_tag >= 0) {
    record_flight(victim, obs::FlightEventKind::kLinkDrop, qdisc_->len(),
                  aqm_ ? (reason == QdiscDropReason::kEarly
                              ? obs::DropCause::kEarly
                              : obs::DropCause::kOverlimit)
                       : obs::DropCause::kNone);
  }
}

void Link::send(const Packet& p) {
  ++total_arrivals_;
  ++per_flow_[p.flow].arrivals;

  // Injected faults discard on arrival.  These are not congestion drops:
  // they bypass the qdisc (and its counters) entirely so the measured p_k
  // keeps meaning "congestion loss", and are tallied in fault_drops_
  // instead — fault_drops() stays disjoint from total_drops() under every
  // discipline.
  if (down_ || burst_remaining_ > 0) {
    if (!down_) --burst_remaining_;
    ++fault_drops_;
    if (event_log_ && event_log_->enabled(obs::Severity::kWarn)) {
      event_log_->record(sched_.now().to_seconds(), obs::Severity::kWarn,
                         "fault_drop",
                         {obs::EventField::num("flow", p.flow),
                          obs::EventField::num("seq", p.seq),
                          obs::EventField::num("down", down_ ? 1 : 0)});
    }
    if (flight_ && p.app_tag >= 0) {
      record_flight(p, obs::FlightEventKind::kLinkDrop, qdisc_->len());
    }
    return;
  }

  // Idle bypass: an empty queue and a free transmitter put the packet
  // straight on the wire — no discipline consulted, exactly like the
  // pre-qdisc link (AQM only shapes a standing queue).
  if (!transmitting_ && qlen() == 0) {
    if (flight_ && p.app_tag >= 0) {
      record_flight(p, obs::FlightEventKind::kLinkEnqueue, 0);
    }
    start_transmission(p);
    return;
  }

  const std::size_t depth = qlen();
  if (!q_enqueue(p, sched_.now())) return;  // dropped + reported
  if (flight_ && p.app_tag >= 0) {
    // Pre-push depth, matching the legacy record-before-enqueue order.
    record_flight(p, obs::FlightEventKind::kLinkEnqueue, depth);
  }
  if (ts_queue_) {
    ts_queue_->add(sched_.now(), static_cast<double>(qlen()));
  }
}

void Link::start_transmission(const Packet& p) {
  if (flight_ && p.app_tag >= 0) {
    record_flight(p, obs::FlightEventKind::kLinkDequeue, qlen());
  }
  transmitting_ = true;
  in_flight_ = p;
  const SimTime tx = tx_time(p.size_bytes);
  busy_time_ += tx;
  // At most one transmission is ever outstanding, so tx-done needs no FIFO:
  // a direct port post (no EventFn, no slab traffic).
  sched_.post_port_after(tx, tx_done_port_id_);
}

void Link::on_transmit_done() {
  // Propagation is pipelined: delivery is scheduled and the transmitter is
  // immediately free for the next queued packet.
  ++total_delivered_;
  if (ts_delivered_) ts_delivered_->bump(sched_.now());
  const SimTime when = sched_.now() + config_.prop_delay;
  if (!deliveries_.empty() && when < deliveries_.back().when) {
    // rescale() shrank the propagation delay under packets already on the
    // wire: this delivery undercuts the FIFO tail, so it takes the legacy
    // one-entry path (the seq is claimed at the same point either way, so
    // pop order is exactly what a FIFO-free scheduler would produce).
    const Packet delivered = in_flight_;
    sched_.post_at(when, [this, delivered] { deliver(delivered); },
                   EventCategory::kLinkDelivery);
  } else {
    // Batched path: claim the (when, seq) key now, park the packet in the
    // link's FIFO, and keep exactly one armed head in the queue.
    const Scheduler::Deferred d = sched_.defer_at(when);
    const bool was_empty = deliveries_.empty();
    deliveries_.push_back(PendingDelivery{d.when, d.seq, in_flight_});
    if (was_empty) sched_.arm_deferred(d, delivery_port_id_);
  }
  transmitting_ = false;
  // A downed link freezes its queue: the packet already on the wire
  // completes, but nothing further dequeues until set_down(false).  CoDel
  // may discard queued heads here and come back empty-handed.
  if (!down_) {
    Packet next;
    if (q_dequeue(&next, sched_.now())) {
      start_transmission(next);
      if (ts_queue_) {
        ts_queue_->add(sched_.now(), static_cast<double>(qlen()));
      }
    }
  }
}

void Link::on_delivery() {
  // Pop the FIFO head, re-arm the successor (its key was claimed when it
  // was scheduled, so arming order cannot disturb pop order), then hand the
  // packet downstream.
  const Packet head = deliveries_.front().packet;
  deliveries_.pop_front();
  if (!deliveries_.empty()) {
    const PendingDelivery& next = deliveries_.front();
    sched_.arm_deferred(Scheduler::Deferred{next.when, next.seq},
                        delivery_port_id_);
  }
  deliver(head);
}

void Link::deliver(const Packet& p) {
  if (next_link_ != nullptr) {
    next_link_->send(p);
  } else if (next_demux_ != nullptr) {
    next_demux_->deliver(p);
  } else if (receiver_) {
    receiver_(p);
  }
}

void Link::set_down(bool down) {
  down_ = down;
  if (!down_ && !transmitting_) {
    Packet next;
    if (q_dequeue(&next, sched_.now())) start_transmission(next);
  }
}

void Link::rescale(double bw_factor, double delay_factor) {
  if (!(bw_factor > 0.0) || !(delay_factor > 0.0)) {
    throw std::invalid_argument{"link rescale factors must be positive"};
  }
  config_.bandwidth_bps = base_config_.bandwidth_bps * bw_factor;
  config_.prop_delay = SimTime::nanos(static_cast<std::int64_t>(
      static_cast<double>(base_config_.prop_delay.ns()) * delay_factor));
  tx_cache_bytes_ = -1;  // bandwidth changed: drop the cached tx time
  // PIE's queue-delay estimate tracks the rescaled drain rate.
  qdisc_->set_drain_rate(config_.bandwidth_bps);
}

LinkFlowCounters Link::flow_counters(FlowId flow) const {
  const LinkFlowCounters* counters = per_flow_.find(flow);
  return counters ? *counters : LinkFlowCounters{};
}

void Link::attach_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix) {
  registry.counter(prefix + ".arrivals")
      .set_sampler([this] { return total_arrivals_; });
  registry.counter(prefix + ".drops")
      .set_sampler([this] { return total_drops(); });
  registry.counter(prefix + ".delivered")
      .set_sampler([this] { return total_delivered_; });
  if (aqm_) {
    registry.counter(prefix + ".early_drops")
        .set_sampler([this] { return qdisc_->counters().early_drops; });
  }
  registry.gauge(prefix + ".queue_depth")
      .set_sampler([this] { return static_cast<double>(qdisc_->len()); });
}

double Link::utilization(SimTime elapsed) const {
  if (elapsed.ns() <= 0) return 0.0;
  return busy_time_.to_seconds() / elapsed.to_seconds();
}

}  // namespace dmp
