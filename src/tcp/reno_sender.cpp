#include "tcp/reno_sender.hpp"

#include <algorithm>
#include <cmath>

namespace dmp {

RenoSender::RenoSender(Scheduler& sched, FlowId flow, TcpConfig config,
                       PacketHandler network_out)
    : sched_(sched),
      flow_(flow),
      config_(config),
      out_(std::move(network_out)),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.initial_ssthresh),
      jitter_rng_(config.jitter_seed ^ (0xD1B54A32D192ED03ULL * (flow + 1))) {
  emit_port_id_ =
      sched_.register_port(&RenoSender::emit_port, this, EventCategory::kTcpSend);
  rto_port_id_ = sched_.register_port(&RenoSender::rto_port, this,
                                     EventCategory::kTcpTimer);
}

std::size_t RenoSender::space() const {
  const std::size_t used = segments_.size();
  return used >= config_.send_buffer_packets
             ? 0
             : config_.send_buffer_packets - used;
}

bool RenoSender::enqueue(std::int64_t app_tag) {
  if (space() == 0) return false;
  segments_.push_back(Segment{app_tag, 0});
  if (flight_ && app_tag >= 0) {
    obs::FlightEvent e;
    e.t_ns = sched_.now().ns();
    e.kind = obs::FlightEventKind::kTcpEnqueue;
    e.packet = app_tag;
    e.path = static_cast<std::int32_t>(flow_);
    e.seq = enq_end() - 1;
    e.queue = static_cast<std::int64_t>(segments_.size());
    flight_->record(e);
  }
  try_send();
  return true;
}

void RenoSender::try_send() {
  const auto win =
      static_cast<std::int64_t>(std::min(cwnd_, config_.max_cwnd));
  while (snd_nxt_ < snd_una_ + win && snd_nxt_ < enq_end()) {
    emit(snd_nxt_);
    ++snd_nxt_;
  }
}

void RenoSender::emit(std::int64_t seq) {
  Segment& s = seg(seq);
  ++s.times_sent;
  s.last_sent = sched_.now();
  if (s.times_sent == 1) {
    ++stats_.data_packets_sent;
    snd_max_ = std::max(snd_max_, seq + 1);
    if (!timing_) {
      timing_ = true;
      rtt_seq_ = seq;
      rtt_ts_ = sched_.now();
    }
  } else {
    ++stats_.retransmissions;
    // Karn: never sample a segment that has been retransmitted.
    if (timing_ && seq == rtt_seq_) timing_ = false;
  }
  if (flight_ && s.app_tag >= 0) {
    obs::FlightEvent e;
    e.t_ns = sched_.now().ns();
    e.kind = obs::FlightEventKind::kTcpSend;
    e.packet = s.app_tag;
    e.path = static_cast<std::int32_t>(flow_);
    e.seq = seq;
    e.attempt = s.times_sent;
    // Retransmissions from fast recovery carry kFastRtx; go-back-N resends
    // after a timeout (in_recovery_ already cleared) carry kRtoRtx.
    if (s.times_sent > 1) {
      e.reason = in_recovery_ ? obs::RtxReason::kFastRtx
                              : obs::RtxReason::kRtoRtx;
    }
    e.cwnd = cwnd_;
    e.ssthresh = ssthresh_;
    flight_->record(e);
  }

  Packet p;
  p.flow = flow_;
  p.kind = PacketKind::kData;
  p.seq = seq;
  p.size_bytes = config_.mss_bytes;
  p.app_tag = s.app_tag;
  // Diagnostic timestamp, only consumed by trace tooling — skip the write
  // on uninstrumented hot paths.
  if (flight_) p.injected = sched_.now();
  transmit(p);

  if (!sched_.port_armed(rto_port_id_)) arm_rto();
}

void RenoSender::transmit(const Packet& p) {
  if (config_.send_overhead_s <= 0.0) {
    out_(p);
    return;
  }
  // Random processing delay, kept FIFO so the jitter never reorders the
  // sender's own segments.  `when` is strictly increasing, so the pending
  // ring stays sorted: claim the (when, seq) key now, park the packet, and
  // keep exactly one armed head in the event queue.
  const SimTime jitter =
      SimTime::seconds(jitter_rng_.uniform(0.0, config_.send_overhead_s));
  SimTime when = sched_.now() + jitter;
  if (when <= last_emission_) when = last_emission_ + SimTime::nanos(1);
  last_emission_ = when;
  const Scheduler::Deferred d = sched_.defer_at(when);
  const bool was_empty = emissions_.empty();
  emissions_.push_back(PendingEmission{d.when, d.seq, p});
  if (was_empty) sched_.arm_deferred(d, emit_port_id_);
}

void RenoSender::on_emit() {
  // Pop the ring head, re-arm the successor (its key was claimed when it
  // was scheduled, so arming order cannot disturb pop order), then hand the
  // packet to the network.
  const Packet head = emissions_.front().p;
  emissions_.pop_front();
  if (!emissions_.empty()) {
    const PendingEmission& next = emissions_.front();
    sched_.arm_deferred(Scheduler::Deferred{next.when, next.seq},
                        emit_port_id_);
  }
  out_(head);
}

SimTime RenoSender::current_rto() const {
  // RFC 6298 backstop of 1s is deliberately not applied below min_rto so the
  // Table-1 configurations reproduce the paper's TO = R_TO/R range of 1.6-3.3.
  double rto_s = rtt_valid_ ? srtt_s_ + 4.0 * rttvar_s_
                            : 3.0;  // conservative pre-sample default
  rto_s = std::max(rto_s, config_.min_rto.to_seconds());
  rto_s = std::min(rto_s * backoff_, config_.max_rto.to_seconds());
  return SimTime::seconds(rto_s);
}

void RenoSender::arm_rto() {
  // Supersedes the armed deadline, if any: its key stays queued as a
  // tombstone until then.
  sched_.arm_port_after(current_rto(), rto_port_id_);
}

void RenoSender::rtt_sample(SimTime sample) {
  const double m = sample.to_seconds();
  if (!rtt_valid_) {
    srtt_s_ = m;
    rttvar_s_ = m / 2.0;
    rtt_valid_ = true;
  } else {
    rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - m);
    srtt_s_ = 0.875 * srtt_s_ + 0.125 * m;
  }
  backoff_ = 1;  // Karn: backoff cleared only on a valid sample
  stats_.rtt_sample_sum_s += m;
  ++stats_.rtt_sample_count;
  stats_.rto_sample_sum_s +=
      std::max(srtt_s_ + 4.0 * rttvar_s_, config_.min_rto.to_seconds());
  ++stats_.rto_sample_count;
}

void RenoSender::open_cwnd(std::int64_t newly_acked) {
  if (cwnd_ < ssthresh_) {
    // Slow start: one segment per ACK event; delayed ACKs naturally slow
    // the doubling to ~1.5x per RTT, as in real stacks.
    cwnd_ += 1.0;
  } else {
    cwnd_ += static_cast<double>(newly_acked) / cwnd_;
  }
  cwnd_ = std::min(cwnd_, config_.max_cwnd);
}

void RenoSender::on_ack(const Packet& ack) {
  ++stats_.acks_received;
  if (m_ack_interarrival_) {
    if (seen_ack_) {
      m_ack_interarrival_->observe((sched_.now() - last_ack_at_).to_seconds());
    }
    seen_ack_ = true;
    last_ack_at_ = sched_.now();
  }
  if (ts_cwnd_) ts_cwnd_->add(sched_.now(), cwnd_);
  if (ts_srtt_ && rtt_valid_) ts_srtt_->add(sched_.now(), srtt_s_);
  const std::int64_t ackno = std::min(ack.seq, snd_max_);

  if (ackno > snd_una_) {
    const std::int64_t newly_acked = ackno - snd_una_;
    if (timing_ && ackno > rtt_seq_) {
      rtt_sample(sched_.now() - rtt_ts_);
      timing_ = false;
    }
    for (std::int64_t i = 0; i < newly_acked; ++i) segments_.pop_front();
    snd_una_ = ackno;
    snd_nxt_ = std::max(snd_nxt_, snd_una_);

    if (in_recovery_) {
      // Classic Reno: deflate to ssthresh and resume congestion avoidance
      // on the first ACK that advances snd_una (partial or full).
      cwnd_ = std::max(ssthresh_, 1.0);
      in_recovery_ = false;
    } else {
      open_cwnd(newly_acked);
    }
    dupacks_ = 0;

    if (snd_una_ == snd_max_) {
      sched_.cancel_port(rto_port_id_);
    } else {
      arm_rto();
    }
    try_send();
    if (space_cb_ && space() > 0) space_cb_();
    return;
  }

  if (ackno == snd_una_ && snd_max_ > snd_una_) {
    ++dupacks_;
    if (!in_recovery_ && dupacks_ == 3) {
      enter_fast_recovery();
    } else if (in_recovery_) {
      cwnd_ = std::min(cwnd_ + 1.0, config_.max_cwnd);  // window inflation
      try_send();
    }
  }
}

void RenoSender::enter_fast_recovery() {
  ++stats_.fast_retransmits;
  ssthresh_ = std::max(std::floor(cwnd_ / 2.0), 2.0);
  cwnd_ = ssthresh_ + 3.0;
  in_recovery_ = true;
  recover_ = snd_max_;
  emit(snd_una_);
  arm_rto();
}

void RenoSender::on_rto() {
  if (segments_.empty()) return;  // raced with a final ACK

  if (backoff_ == 1) {
    stats_.rto_at_timeout_sum_s += current_rto().to_seconds();
    ++stats_.rto_at_timeout_count;
  }
  ++stats_.timeouts;
  if (flight_) {
    // Flow-level stall marker with the pre-collapse window; the packet at
    // snd_una is the one the timeout fired for.
    obs::FlightEvent e;
    e.t_ns = sched_.now().ns();
    e.kind = obs::FlightEventKind::kRto;
    e.packet = segments_.front().app_tag;
    e.path = static_cast<std::int32_t>(flow_);
    e.seq = snd_una_;
    e.cwnd = cwnd_;
    e.ssthresh = ssthresh_;
    flight_->record(e);
  }

  ssthresh_ = std::max(std::floor(cwnd_ / 2.0), 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_recovery_ = false;
  backoff_ = std::min(backoff_ * 2, 64u);
  timing_ = false;
  snd_nxt_ = snd_una_;  // go-back-N
  arm_rto();
  try_send();
}

void RenoSender::attach_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) {
  registry.counter(prefix + ".data_packets_sent")
      .set_sampler([this] { return stats_.data_packets_sent; });
  registry.counter(prefix + ".retransmissions")
      .set_sampler([this] { return stats_.retransmissions; });
  registry.counter(prefix + ".timeouts")
      .set_sampler([this] { return stats_.timeouts; });
  registry.counter(prefix + ".fast_retransmits")
      .set_sampler([this] { return stats_.fast_retransmits; });
  registry.counter(prefix + ".acks_received")
      .set_sampler([this] { return stats_.acks_received; });
  m_ack_interarrival_ = &registry.histogram(prefix + ".ack_interarrival_s");
  registry.gauge(prefix + ".cwnd").set_sampler([this] { return cwnd_; });
  registry.gauge(prefix + ".ssthresh").set_sampler([this] {
    return ssthresh_;
  });
  registry.gauge(prefix + ".srtt_s").set_sampler([this] { return srtt_s_; });
  registry.gauge(prefix + ".rto_s").set_sampler([this] {
    return current_rto().to_seconds();
  });
  registry.gauge(prefix + ".buffered").set_sampler([this] {
    return static_cast<double>(segments_.size());
  });
}

std::vector<std::int64_t> RenoSender::reclaim_unsent() {
  // Never-transmitted segments are exactly those past max(snd_max_,
  // snd_nxt_): snd_max_ is the highest sequence ever emitted (+1) and
  // snd_nxt_ can only exceed it transiently inside try_send.  Popping from
  // the back cannot disturb snd_una_-relative indexing of the rest.
  std::vector<std::int64_t> tags;
  const std::int64_t sent_end = std::max(snd_max_, snd_nxt_);
  while (enq_end() > sent_end) {
    tags.push_back(segments_.back().app_tag);
    segments_.pop_back();
  }
  std::reverse(tags.begin(), tags.end());
  return tags;
}

void RenoSender::idle_restart() {
  cwnd_ = std::min(cwnd_, config_.initial_cwnd);
  dupacks_ = 0;
  in_recovery_ = false;
}

}  // namespace dmp
