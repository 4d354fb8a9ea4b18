// TCP Reno sender agent (one-way data, ns-2 style).
//
// The application hands the sender MSS-sized "app packets" (each carrying an
// opaque tag, e.g. the stream packet number) through a bounded send buffer.
// `space()` and the space callback are the hook DMP-streaming uses: a sender
// with free buffer space pulls more packets from the shared server queue.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/time_series.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_config.hpp"
#include "util/ring_fifo.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class RenoSender {
 public:
  RenoSender(Scheduler& sched, FlowId flow, TcpConfig config,
             PacketHandler network_out);

  // --- application side ---
  // Free send-buffer slots.
  std::size_t space() const;
  // Appends one segment carrying `app_tag`; returns false when the buffer is
  // full.  Transmission is attempted immediately if the window allows.
  bool enqueue(std::int64_t app_tag);
  // Invoked whenever ACKs free buffer space (after the sender has already
  // used the new window itself); the callback may call enqueue().
  void set_space_callback(std::function<void()> cb) { space_cb_ = std::move(cb); }

  // --- network side ---
  void on_ack(const Packet& ack);

  // --- introspection ---
  FlowId flow() const { return flow_; }
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  bool in_recovery() const { return in_recovery_; }
  std::int64_t snd_una() const { return snd_una_; }
  std::int64_t snd_nxt() const { return snd_nxt_; }
  std::int64_t snd_max() const { return snd_max_; }
  // Segments enqueued and not yet cumulatively acknowledged.
  std::size_t buffered() const { return segments_.size(); }
  SimTime current_rto() const;
  // Smoothed RTT estimate in seconds; 0 until the first valid sample
  // (Karn-filtered).  Consumed by RTT-aware path schedulers.
  double srtt_s() const { return rtt_valid_ ? srtt_s_ : 0.0; }
  const TcpSenderStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }

  // Reset cwnd after an application idle period (slow-start restart); used
  // by the HTTP background source between transfers.
  void idle_restart();

  // Removes every segment that has never been transmitted from the back of
  // the send buffer and returns their app tags in enqueue order.  Segments
  // that are in flight (or were ever sent) stay — their recovery is TCP's
  // job.  Used by the DMP server when a path fails: the dead sender's
  // unsent share goes back to the shared queue so surviving paths carry it.
  std::vector<std::int64_t> reclaim_unsent();

  // One transmitted-but-unacked segment: the at-risk set when this
  // sender's path fails (recovery is otherwise pinned to this sender's
  // RTO backoff).  `last_sent` separates segments that may genuinely be
  // caught in a blackhole (sent within ~one RTT of the fault) from older
  // ones that were already delivered and merely lost their ACK.
  struct AtRiskSegment {
    std::int64_t app_tag = -1;
    SimTime last_sent = SimTime::zero();
  };

  // Every segment transmitted at least once and not yet cumulatively
  // acknowledged, in sequence order.  A redundant failover policy may
  // re-send (a subset of) them on surviving paths; the client dedups.
  std::vector<AtRiskSegment> transmitted_unacked() const {
    std::vector<AtRiskSegment> at_risk;
    for (const auto& segment : segments_) {
      if (segment.times_sent > 0) {
        at_risk.push_back(AtRiskSegment{segment.app_tag, segment.last_sent});
      }
    }
    return at_risk;
  }

  // Current Karn backoff multiplier (1 = no backoff; doubles per
  // consecutive timeout up to 64).  Exposed for failover diagnostics.
  std::uint32_t rto_backoff() const { return backoff_; }

  // App tag of the oldest transmitted-but-unacked segment (the head-of-line
  // packet whose delivery this sender's path is currently blocking), or -1
  // when nothing transmitted is outstanding.  O(1); consumed by redundancy
  // policies that duplicate the most deadline-critical packet.
  std::int64_t oldest_unacked_tag() const {
    if (segments_.empty() || segments_.front().times_sent == 0) return -1;
    return segments_.front().app_tag;
  }

  // --- observability (all optional; no-ops when never called) ---
  // Registers `<prefix>.{cwnd,ssthresh,srtt_s,rto_s,buffered}` sampler
  // gauges, `<prefix>.{data_packets_sent,retransmissions,timeouts,
  // fast_retransmits,acks_received}` counters that read `stats()` when the
  // report is written, and the `<prefix>.ack_interarrival_s` histogram.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix);
  // Emits "rto" (kWarn), "fast_retransmit" (kInfo) and "ss_to_ca" phase-
  // transition (kInfo) events tagged with this sender's flow id.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }
  // Records per-stream-packet send-buffer enqueues and (re)transmissions
  // (with cwnd/ssthresh snapshots and the recovery mechanism), plus
  // flow-level RTO span events, into the flight recorder.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }
  // Windowed telemetry (either may be null): cwnd and srtt sampled on
  // every cumulative ACK — event-driven, so the windows catch the sawtooth
  // a fixed-interval probe aliases over.
  void set_telemetry(obs::TimeSeriesChannel* cwnd,
                     obs::TimeSeriesChannel* srtt_s) {
    ts_cwnd_ = cwnd;
    ts_srtt_ = srtt_s;
  }

 private:
  struct Segment {
    std::int64_t app_tag;
    std::uint32_t times_sent = 0;
    SimTime last_sent = SimTime::zero();
  };

  // One jitter-delayed emission: a (when, seq) key claimed from the
  // scheduler at transmit() time plus the packet itself.  `when` is
  // strictly increasing (the last_emission_ guard), so the ring is FIFO by
  // construction and only its head is ever armed in the event queue.
  struct PendingEmission {
    SimTime when;
    std::uint64_t seq = 0;
    Packet p;
  };

  static void emit_port(void* ctx) {
    static_cast<RenoSender*>(ctx)->on_emit();
  }

  Segment& seg(std::int64_t seq) {
    return segments_[static_cast<std::size_t>(seq - snd_una_)];
  }
  std::int64_t enq_end() const {
    return snd_una_ + static_cast<std::int64_t>(segments_.size());
  }

  void try_send();
  void emit(std::int64_t seq);
  void transmit(const Packet& p);
  void on_emit();
  void open_cwnd(std::int64_t newly_acked);
  void enter_fast_recovery();
  void on_rto();
  void arm_rto();
  void rtt_sample(SimTime sample);

  Scheduler& sched_;
  FlowId flow_;
  TcpConfig config_;
  PacketHandler out_;
  std::function<void()> space_cb_;

  std::deque<Segment> segments_;  // front = snd_una_
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t snd_max_ = 0;

  double cwnd_;
  double ssthresh_;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;

  // Jacobson/Karn estimator state (seconds).
  bool rtt_valid_ = false;
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  std::uint32_t backoff_ = 1;
  bool timing_ = false;
  std::int64_t rtt_seq_ = -1;
  SimTime rtt_ts_ = SimTime::zero();
  EventHandle rtx_timer_;

  Rng jitter_rng_;
  SimTime last_emission_ = SimTime::zero();  // keeps jittered sends FIFO
  // Jitter-delayed packets waiting for their armed head to fire.
  RingFifo<PendingEmission> emissions_;
  std::uint32_t emit_port_id_ = 0;

  TcpSenderStats stats_;

  obs::Histogram* m_ack_interarrival_ = nullptr;
  SimTime last_ack_at_ = SimTime::zero();
  bool seen_ack_ = false;
  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_cwnd_ = nullptr;
  obs::TimeSeriesChannel* ts_srtt_ = nullptr;
};

}  // namespace dmp
