// Unidirectional link: a pluggable queue discipline feeding a fixed-rate
// transmitter with constant propagation delay.  With the default DropTail
// discipline this is the ns-2 DropTail/DelayLink pair in one object,
// byte-identical to the pre-qdisc implementation; PIE / FQ-PIE / CoDel
// (src/net/qdisc/) swap the enqueue/drop decision without touching the
// transmitter, fault hooks or observability.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "net/demux.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/qdisc/droptail.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/time_series.hpp"
#include "sim/scheduler.hpp"
#include "util/ring_fifo.hpp"
#include "util/sim_time.hpp"

namespace dmp {

struct LinkConfig {
  double bandwidth_bps = 10e6;
  SimTime prop_delay = SimTime::millis(10);
  // Queue capacity in packets (the paper's Table-1 buffers are in packets);
  // 0 means unbounded (used for access links that must never drop).
  std::size_t buffer_packets = 0;
  // Queue discipline (default drop-tail; see src/net/qdisc/).  AQM
  // disciplines that draw early-drop trials read `qdisc.seed`.
  QdiscSpec qdisc{};
};

// Per-flow arrival/drop counters at the link's queue; the paper's measured
// per-path loss probability p_k is drops/arrivals of the video flow at the
// bottleneck.  Under AQM, `drops` counts every congestion discard (early +
// overlimit) — the loss process TCP actually sees.
struct LinkFlowCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
};

class Link {
 public:
  Link(Scheduler& sched, LinkConfig config);

  // Downstream receiver; must be set before the first send.  The Link and
  // FlowDemux overloads devirtualize the hop — delivery calls the next
  // stage directly instead of going through a std::function.
  void set_receiver(PacketHandler receiver) {
    next_link_ = nullptr;
    next_demux_ = nullptr;
    receiver_ = std::move(receiver);
  }
  void set_receiver(Link* next) {
    next_link_ = next;
    next_demux_ = nullptr;
    receiver_ = nullptr;
  }
  void set_receiver(FlowDemux* demux) {
    next_link_ = nullptr;
    next_demux_ = demux;
    receiver_ = nullptr;
  }

  // Offer to the queue discipline; may drop (tail or AQM-early) on arrival,
  // and AQM disciplines may additionally discard queued packets later.
  void send(const Packet& p);

  std::size_t queue_length() const { return qlen(); }
  const LinkConfig& config() const { return config_; }

  // Aggregate and per-flow counters.  Every congestion discard is a qdisc
  // discard, so the drop total is the qdisc's per-reason tallies summed.
  std::uint64_t total_arrivals() const { return total_arrivals_; }
  std::uint64_t total_drops() const {
    return qdisc_->counters().overlimit_drops + qdisc_->counters().early_drops;
  }
  std::uint64_t total_delivered() const { return total_delivered_; }
  LinkFlowCounters flow_counters(FlowId flow) const;

  // Queue-discipline identity and per-reason discard tallies
  // (counters().early_drops stays 0 on a droptail link).
  const char* qdisc_name() const { return qdisc_->name(); }
  const QdiscCounters& qdisc_counters() const { return qdisc_->counters(); }

  // Busy-time integral, for utilization diagnostics.
  double utilization(SimTime elapsed) const;

  // Packets propagating (transmitted, not yet delivered) and the slots
  // reserved for them; capacity tracks the in-flight high-water mark, not
  // the traffic carried.
  std::size_t in_flight() const { return deliveries_.size(); }
  std::size_t in_flight_capacity() const { return deliveries_.capacity(); }

  // --- fault hooks (src/fault/; all inert until first used) ---
  // While down the link drops every arrival (counted in fault_drops(), NOT
  // in the congestion counters the measured p_k is built from), finishes
  // the transmission already on the wire, and freezes its queue.  Raising
  // the link resumes draining the frozen queue.
  void set_down(bool down);
  bool down() const { return down_; }
  // Drops the next `count` arrivals (burst loss); cumulative across calls.
  void drop_next(std::uint64_t count) { burst_remaining_ += count; }
  std::uint64_t burst_remaining() const { return burst_remaining_; }
  // Rescales bandwidth / propagation delay relative to the CONSTRUCTED
  // configuration (factors do not compound), applying to future
  // transmissions only.  Factors must be > 0.
  void rescale(double bw_factor, double delay_factor);
  // Arrivals discarded by link_down / burst_loss faults.
  std::uint64_t fault_drops() const { return fault_drops_; }

  // --- observability (all optional; no-ops when never called) ---
  // Registers `<prefix>.queue_depth` (gauge, samples this link) and
  // `<prefix>.{arrivals,drops,delivered}` (counters that read the totals
  // above when the report is written; nothing is added to the hot path).
  // Non-droptail links additionally register `<prefix>.early_drops` (AQM
  // controller discards), so default runs export exactly the legacy metric
  // set.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix);
  // Emits a kWarn "drop" event per congestion discard ("fault_drop" for
  // injected ones).
  void set_event_log(obs::EventLog* log) { event_log_ = log; }
  // Records per-stream-packet queue entry/exit/drop span events (packets
  // with app_tag < 0 — ACKs, background traffic — are ignored).  `hop`
  // identifies this link in the trace.
  void set_flight_recorder(obs::FlightRecorder* recorder, std::int32_t hop) {
    flight_ = recorder;
    flight_hop_ = hop;
  }
  // Windowed telemetry channels (any may be null): packets forwarded per
  // window, congestion discards per window, and queue-depth samples taken
  // on every enqueue/dequeue.  Null pointers keep the hot path identical
  // to an uninstrumented link.
  void set_telemetry(obs::TimeSeriesChannel* delivered,
                     obs::TimeSeriesChannel* drops,
                     obs::TimeSeriesChannel* queue_depth) {
    ts_delivered_ = delivered;
    ts_drops_ = drops;
    ts_queue_ = queue_depth;
  }

 private:
  // One in-flight delivery: a (when, seq) key claimed from the scheduler at
  // schedule time plus the packet itself.  Only the FIFO head is armed in
  // the event queue; the rest wait here (docs/DES_ENGINE.md).
  struct PendingDelivery {
    SimTime when;
    std::uint64_t seq = 0;
    Packet packet;
  };

  static void tx_done_port(void* ctx) {
    static_cast<Link*>(ctx)->on_transmit_done();
  }
  static void delivery_port(void* ctx) {
    static_cast<Link*>(ctx)->on_delivery();
  }

  void start_transmission(const Packet& p);
  void on_transmit_done();
  void on_delivery();
  void deliver(const Packet& p);
  void on_qdisc_drop(const Packet& victim, QdiscDropReason reason);

  // Devirtualized queue ops for the default discipline: DropTailQdisc is
  // final, so these inline to ring operations; AQM links take the
  // virtual call.  Identical semantics either way.
  std::size_t qlen() const {
    return droptail_ ? droptail_->len() : qdisc_->len();
  }
  // Packet sizes on a link are near-constant (MSS data one way, fixed-size
  // ACKs the other), so a one-entry cache removes the per-packet double
  // divide; transmission_time is pure, so the cached value is identical.
  SimTime tx_time(std::int64_t bytes) {
    if (bytes != tx_cache_bytes_) {
      tx_cache_bytes_ = bytes;
      tx_cache_ = transmission_time(bytes, config_.bandwidth_bps);
    }
    return tx_cache_;
  }
  bool q_enqueue(const Packet& p, SimTime now) {
    return droptail_ ? droptail_->enqueue(p, now) : qdisc_->enqueue(p, now);
  }
  bool q_dequeue(Packet* out, SimTime now) {
    return droptail_ ? droptail_->dequeue(out, now)
                     : qdisc_->dequeue(out, now);
  }

  Scheduler& sched_;
  LinkConfig config_;
  const LinkConfig base_config_;  // rescale() factors are relative to this
  Link* next_link_ = nullptr;      // devirtualized receiver (one of three)
  FlowDemux* next_demux_ = nullptr;
  PacketHandler receiver_;
  std::unique_ptr<QueueDiscipline> qdisc_;
  DropTailQdisc* droptail_ = nullptr;  // set iff qdisc_ is the default
  std::int64_t tx_cache_bytes_ = -1;   // tx_time() cache key; reset on rescale
  SimTime tx_cache_ = SimTime::zero();
  // True for non-droptail disciplines: gates the AQM-only observability
  // (drop-cause trace field, early-drop counter, event-log reason) so the
  // default configuration's artifacts stay byte-identical to pre-qdisc.
  const bool aqm_;
  bool transmitting_ = false;
  Packet in_flight_{};

  bool down_ = false;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t fault_drops_ = 0;

  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_delivered_ = 0;
  SimTime busy_time_ = SimTime::zero();
  // Per-flow counters, touched on every arrival: a bottleneck interleaves
  // ~55 flows, so the lookup is O(1) rather than a scan.
  FlowTable<LinkFlowCounters> per_flow_;

  // In-flight deliveries (FIFO by construction: propagation delay is
  // constant between rescales, so (when, seq) is nondecreasing).  The head
  // is armed in the scheduler; a busy link never drains this, so it is a
  // ring sized by the in-flight high-water mark.
  RingFifo<PendingDelivery> deliveries_;
  std::uint32_t tx_done_port_id_ = 0;
  std::uint32_t delivery_port_id_ = 0;

  void record_flight(const Packet& p, obs::FlightEventKind kind,
                     std::size_t queue_depth,
                     obs::DropCause cause = obs::DropCause::kNone);

  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::int32_t flight_hop_ = -1;
  obs::TimeSeriesChannel* ts_delivered_ = nullptr;
  obs::TimeSeriesChannel* ts_drops_ = nullptr;
  obs::TimeSeriesChannel* ts_queue_ = nullptr;
};

}  // namespace dmp
