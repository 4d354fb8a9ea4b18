#include "obs/trace_analyzer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/sim_time.hpp"

namespace dmp::obs {

std::string_view late_cause_name(LateCause cause) {
  switch (cause) {
    case LateCause::kQueueing: return "queueing";
    case LateCause::kLossFastRtx: return "loss_fast_rtx";
    case LateCause::kRtoStall: return "rto_stall";
    case LateCause::kHolWait: return "hol_wait";
    case LateCause::kPathImbalance: return "path_imbalance";
    case LateCause::kNeverArrived: return "never_arrived";
    case LateCause::kPathFault: return "path_fault";
  }
  return "?";
}

std::int64_t PacketTimeline::pre_tx_wait_ns() const {
  // Earliest station the trace saw the packet at before transmission.
  const std::int64_t start =
      gen_ns >= 0 ? gen_ns : (pull_ns >= 0 ? pull_ns : enqueue_ns);
  if (start < 0 || sends.empty()) return 0;
  return std::max<std::int64_t>(0, sends.front().t_ns - start);
}

std::int64_t PacketTimeline::link_queue_wait_ns() const {
  std::int64_t total = 0;
  for (const HopTraversal& h : hops) {
    if (h.enqueue_ns >= 0 && h.dequeue_ns >= 0) {
      total += h.dequeue_ns - h.enqueue_ns;
    }
  }
  return total;
}

std::int64_t PacketTimeline::reorder_wait_ns() const {
  if (sink_rx_ns < 0 || deliver_ns < 0) return 0;
  return std::max<std::int64_t>(0, deliver_ns - sink_rx_ns);
}

TraceAnalyzer::TraceAnalyzer(const FlightRecorder& recorder)
    : mu_pps_(recorder.mu_pps()),
      epoch_ns_(recorder.epoch_ns()),
      total_packets_(recorder.total_packets()) {
  for (const FlightEvent& e : recorder.events()) {
    if (e.kind == FlightEventKind::kRto) {
      if (e.path >= 0) rto_times_[e.path].push_back(e.t_ns);
      continue;
    }
    if (e.kind == FlightEventKind::kPathFault) {
      // seq carries the fault::FaultKind code: 0 = link_down opens an
      // outage window, 1 = link_up closes it, 2 = burst_loss is a point
      // window.  Rescale (3) shifts capacity but loses nothing — it is
      // not a window, so post-rescale congestion keeps its organic cause.
      if (e.path >= 0) {
        auto& windows = fault_windows_[e.path];
        if (e.seq == 0) {
          windows.emplace_back(e.t_ns,
                               std::numeric_limits<std::int64_t>::max());
        } else if (e.seq == 1) {
          if (!windows.empty() &&
              windows.back().second ==
                  std::numeric_limits<std::int64_t>::max()) {
            windows.back().second = e.t_ns;
          }
        } else if (e.seq == 2) {
          windows.emplace_back(e.t_ns, e.t_ns);
        }
      }
      continue;
    }
    if (e.packet < 0) continue;
    PacketTimeline& tl = timelines_[e.packet];
    tl.packet = e.packet;
    if (e.path >= 0) tl.path = e.path;
    switch (e.kind) {
      case FlightEventKind::kGenerate:
        tl.gen_ns = e.t_ns;
        break;
      case FlightEventKind::kPull:
        tl.pull_ns = e.t_ns;
        break;
      case FlightEventKind::kTcpEnqueue:
        tl.enqueue_ns = e.t_ns;
        break;
      case FlightEventKind::kTcpSend:
        tl.sends.push_back(PacketTimeline::Send{e.t_ns, e.seq, e.attempt,
                                                e.reason, e.cwnd, e.ssthresh});
        ++tl.transmissions;
        break;
      case FlightEventKind::kLinkEnqueue:
        tl.hops.push_back(PacketTimeline::HopTraversal{e.hop, e.t_ns, -1,
                                                       false});
        break;
      case FlightEventKind::kLinkDequeue: {
        // Close the most recent open traversal of this hop.
        for (auto it = tl.hops.rbegin(); it != tl.hops.rend(); ++it) {
          if (it->hop == e.hop && it->dequeue_ns < 0 && !it->dropped) {
            it->dequeue_ns = e.t_ns;
            break;
          }
        }
        break;
      }
      case FlightEventKind::kLinkDrop:
        // Drop-tail discards happen on arrival: the packet never entered
        // the queue, so the drop is its own (terminal) traversal record.
        tl.hops.push_back(PacketTimeline::HopTraversal{e.hop, e.t_ns, -1,
                                                       true});
        ++tl.drops;
        break;
      case FlightEventKind::kSinkRx:
        if (tl.sink_rx_ns < 0) tl.sink_rx_ns = e.t_ns;
        break;
      case FlightEventKind::kDeliver:
        if (tl.deliver_ns < 0) tl.deliver_ns = e.t_ns;
        break;
      case FlightEventKind::kArrive:
        if (tl.arrive_ns < 0) tl.arrive_ns = e.t_ns;
        arrivals_.emplace_back(e.packet, e.t_ns);
        break;
      case FlightEventKind::kRto:
      case FlightEventKind::kPathFault:
        break;  // handled above
      case FlightEventKind::kSchedDecision:
        // Redundancy dispatches (duplicate copies / parity packets) are
        // wire-level extras, not lifecycle stations: the copy that wins
        // the race produces the packet's kArrive like any other.
        break;
    }
  }
}

const PacketTimeline* TraceAnalyzer::timeline(std::int64_t packet) const {
  const auto it = timelines_.find(packet);
  return it == timelines_.end() ? nullptr : &it->second;
}

LateCause TraceAnalyzer::classify(const PacketTimeline& tl) const {
  // 0. Injected fault first: if the packet's flight window overlaps an
  //    outage (or burst-loss instant) on its delivering path, the fault —
  //    not the organic congestion mechanisms below — explains the miss.
  //    Packets reclaimed onto a healthy path are judged against THAT
  //    path's windows, so load shifted by DMP keeps its organic causes.
  if (tl.path >= 0 && tl.arrive_ns >= 0 && !fault_windows_.empty()) {
    const std::int64_t window_start =
        tl.enqueue_ns >= 0
            ? tl.enqueue_ns
            : (tl.sends.empty() ? tl.arrive_ns : tl.sends.front().t_ns);
    const auto it = fault_windows_.find(tl.path);
    if (it != fault_windows_.end()) {
      for (const auto& [start, end] : it->second) {
        if (start <= tl.arrive_ns && end >= window_start) {
          return LateCause::kPathFault;
        }
      }
    }
  }

  // 1. The packet itself was retransmitted: the recovery mechanism of the
  //    last retransmission is the cause (a fast retransmit that later
  //    escalated into a timeout counts as the timeout).
  for (auto it = tl.sends.rbegin(); it != tl.sends.rend(); ++it) {
    if (it->attempt > 1) {
      return it->reason == RtxReason::kRtoRtx ? LateCause::kRtoStall
                                              : LateCause::kLossFastRtx;
    }
  }

  // 2. Sent once, but its flight window spans an RTO on its path: the
  //    window collapse / go-back-N stall delayed it.
  if (tl.path >= 0 && tl.arrive_ns >= 0) {
    const std::int64_t window_start =
        tl.enqueue_ns >= 0
            ? tl.enqueue_ns
            : (tl.sends.empty() ? tl.arrive_ns : tl.sends.front().t_ns);
    const auto it = rto_times_.find(tl.path);
    if (it != rto_times_.end()) {
      for (const std::int64_t t : it->second) {
        if (t >= window_start && t <= tl.arrive_ns) {
          return LateCause::kRtoStall;
        }
      }
    }
  }

  // 3. Clean delivery: the largest wait component dominates.  Precedence
  //    on exact ties: queueing, then head-of-line wait, then imbalance.
  const std::int64_t linkq = tl.link_queue_wait_ns();
  const std::int64_t hol = tl.reorder_wait_ns();
  const std::int64_t pre_tx = tl.pre_tx_wait_ns();
  if (linkq >= hol && linkq >= pre_tx) return LateCause::kQueueing;
  if (hol >= pre_tx) return LateCause::kHolWait;
  return LateCause::kPathImbalance;
}

AttributionReport TraceAnalyzer::attribute(double tau_s,
                                           std::int64_t total_packets) const {
  AttributionReport report;
  report.total_packets =
      total_packets >= 0 ? total_packets : total_packets_;
  if (report.total_packets <= 0) return report;
  if (mu_pps_ <= 0.0) {
    throw std::runtime_error{"trace meta lacks mu_pps; cannot attribute"};
  }

  // Operation-for-operation mirror of
  // StreamTrace::late_fraction_playback_order: iterate arrivals in arrival
  // order, evaluate each against n/mu + tau with the same SimTime
  // integer-nanosecond arithmetic, then count the never-arrived tail.
  const SimTime tau = SimTime::seconds(tau_s);
  std::int64_t seen = 0;
  for (const auto& [packet, t_abs] : arrivals_) {
    if (packet >= report.total_packets) continue;
    ++seen;
    const SimTime arrived = SimTime::nanos(t_abs - epoch_ns_);
    const SimTime playback =
        SimTime::seconds(static_cast<double>(packet) / mu_pps_) + tau;
    if (arrived <= playback) continue;
    PacketVerdict v;
    v.packet = packet;
    v.arrive_rel_ns = arrived.ns();
    v.deadline_rel_ns = playback.ns();
    v.late = true;
    const auto it = timelines_.find(packet);
    v.cause = it == timelines_.end() ? LateCause::kQueueing
                                     : classify(it->second);
    ++report.by_cause[static_cast<std::size_t>(v.cause)];
    ++report.late;
    report.verdicts.push_back(v);
  }
  report.arrived = seen;
  const std::int64_t missing = report.total_packets - seen;
  report.late += missing;
  report.by_cause[static_cast<std::size_t>(LateCause::kNeverArrived)] +=
      missing;
  return report;
}

namespace {

double percentile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return static_cast<double>(sorted[std::min(index, sorted.size() - 1)]) *
         1e-9;
}

}  // namespace

std::vector<PathHopStats> TraceAnalyzer::path_stats() const {
  std::map<std::int32_t, PathHopStats> stats;
  std::map<std::int32_t, std::vector<std::int64_t>> waits;
  for (const auto& [packet, tl] : timelines_) {
    if (tl.path < 0) continue;
    PathHopStats& s = stats[tl.path];
    s.path = tl.path;
    if (tl.arrive_ns >= 0) ++s.packets_delivered;
    s.drops += tl.drops;
    if (tl.transmissions > 1) s.retransmissions += tl.transmissions - 1;
    for (const auto& h : tl.hops) {
      if (h.enqueue_ns >= 0 && h.dequeue_ns >= 0) {
        waits[tl.path].push_back(h.dequeue_ns - h.enqueue_ns);
      }
    }
  }
  for (const auto& [path, times] : rto_times_) {
    stats[path].path = path;
    stats[path].rtos += times.size();
  }
  std::vector<PathHopStats> result;
  for (auto& [path, s] : stats) {
    auto& w = waits[path];
    std::sort(w.begin(), w.end());
    s.queue_wait_p50_s = percentile(w, 0.50);
    s.queue_wait_p90_s = percentile(w, 0.90);
    s.queue_wait_p99_s = percentile(w, 0.99);
    s.queue_wait_max_s = w.empty() ? 0.0 : static_cast<double>(w.back()) * 1e-9;
    result.push_back(s);
  }
  return result;
}

std::vector<const PacketTimeline*> TraceAnalyzer::retransmitted_packets()
    const {
  std::vector<const PacketTimeline*> result;
  for (const auto& [packet, tl] : timelines_) {
    if (tl.transmissions > 1) result.push_back(&tl);
  }
  return result;
}

// --- JSONL loader (writer's own format only) ---

namespace {

// `"key` followed by `tail`.  Appended piece by piece: GCC 12 flags
// `"\"" + std::string(key)` with a false -Wrestrict in Release builds.
std::string key_needle(std::string_view key, std::string_view tail) {
  std::string needle = "\"";
  needle += key;
  needle += tail;
  return needle;
}

// Locates `"key":` and parses the numeric value after it.
bool find_i64(const std::string& line, std::string_view key,
              std::int64_t* out) {
  const std::string needle = key_needle(key, "\":");
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = line.data() + pos + needle.size();
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr != begin;
}

bool find_f64(const std::string& line, std::string_view key, double* out) {
  const std::string needle = key_needle(key, "\":");
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = line.data() + pos + needle.size();
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr != begin;
}

bool find_str(const std::string& line, std::string_view key,
              std::string* out) {
  const std::string needle = key_needle(key, "\":\"");
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto close = line.find('"', start);
  if (close == std::string::npos) return false;
  *out = line.substr(start, close - start);
  return true;
}

FlightEventKind kind_from_name(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "gen") return FlightEventKind::kGenerate;
  if (name == "pull") return FlightEventKind::kPull;
  if (name == "tcp_enq") return FlightEventKind::kTcpEnqueue;
  if (name == "tcp_tx") return FlightEventKind::kTcpSend;
  if (name == "link_enq") return FlightEventKind::kLinkEnqueue;
  if (name == "link_deq") return FlightEventKind::kLinkDequeue;
  if (name == "link_drop") return FlightEventKind::kLinkDrop;
  if (name == "rto") return FlightEventKind::kRto;
  if (name == "sink_rx") return FlightEventKind::kSinkRx;
  if (name == "deliver") return FlightEventKind::kDeliver;
  if (name == "arrive") return FlightEventKind::kArrive;
  if (name == "path_fault") return FlightEventKind::kPathFault;
  if (name == "sched") return FlightEventKind::kSchedDecision;
  *ok = false;
  return FlightEventKind::kGenerate;
}

}  // namespace

FlightRecorder read_flight_trace(std::istream& in) {
  FlightRecorder recorder;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string ev;
    if (!find_str(line, "ev", &ev)) {
      throw std::runtime_error{"flight trace line " + std::to_string(line_no) +
                               ": missing \"ev\" field"};
    }
    if (ev == "meta") {
      double mu = 0.0;
      std::int64_t epoch = 0, total = -1;
      find_f64(line, "mu_pps", &mu);
      find_i64(line, "epoch_ns", &epoch);
      find_i64(line, "total_packets", &total);
      recorder.set_meta(mu, epoch, total);
      continue;
    }
    bool known = false;
    FlightEvent e;
    e.kind = kind_from_name(ev, &known);
    if (!known) {
      throw std::runtime_error{"flight trace line " + std::to_string(line_no) +
                               ": unknown event type \"" + ev + "\""};
    }
    if (!find_i64(line, "t_ns", &e.t_ns) ||
        !find_i64(line, "pkt", &e.packet)) {
      throw std::runtime_error{"flight trace line " + std::to_string(line_no) +
                               ": missing t_ns/pkt"};
    }
    std::int64_t v = 0;
    if (find_i64(line, "path", &v)) e.path = static_cast<std::int32_t>(v);
    if (find_i64(line, "hop", &v)) e.hop = static_cast<std::int32_t>(v);
    find_i64(line, "seq", &e.seq);
    find_i64(line, "queue", &e.queue);
    if (find_i64(line, "attempt", &v)) {
      e.attempt = static_cast<std::uint32_t>(v);
    }
    std::string reason;
    if (find_str(line, "reason", &reason)) {
      e.reason = reason == "rto" ? RtxReason::kRtoRtx
                                 : (reason == "fast" ? RtxReason::kFastRtx
                                                     : RtxReason::kNone);
    }
    find_f64(line, "cwnd", &e.cwnd);
    find_f64(line, "ssthresh", &e.ssthresh);
    recorder.record(e);
  }
  return recorder;
}

FlightRecorder read_flight_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error{"cannot open flight trace: " + path};
  }
  return read_flight_trace(in);
}

}  // namespace dmp::obs
