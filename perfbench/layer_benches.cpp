// Per-layer microbenchmarks: each times one layer through its public API on seeded
// synthetic input shaped like the sessions' traffic (MTU data segments and
// 40-byte ACKs on a Table-1 bottleneck).
#include <deque>
#include <stdexcept>
#include <vector>

#include "inet/framing.hpp"
#include "net/link.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/scheduler.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "tcp/reno_sender.hpp"
#include "tcp/sink.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dmp::Packet;
using dmp::PacketKind;
using dmp::SimTime;

constexpr double kBottleneckBps = 3.7e6;  // Table-1 configs 1 and 2

Packet mixed_packet(dmp::Rng& rng, std::int64_t seq) {
  Packet p;
  const bool data = rng.uniform() < 0.6;
  p.flow = static_cast<dmp::FlowId>(rng.uniform_int(8));
  p.kind = data ? PacketKind::kData : PacketKind::kAck;
  p.seq = seq;
  p.size_bytes = data ? dmp::kDataPacketBytes : dmp::kAckPacketBytes;
  return p;
}

// Mean gap that offers `load` of the bottleneck with the 60/40 data/ACK mix.
SimTime mean_gap(double load) {
  const double mean_bytes =
      0.6 * dmp::kDataPacketBytes + 0.4 * dmp::kAckPacketBytes;
  return SimTime::seconds(mean_bytes * 8.0 / kBottleneckBps / load);
}

double ns_per(std::int64_t start_ns, std::size_t count) {
  if (count == 0) throw std::runtime_error("microbenchmark did no work");
  return static_cast<double>(now_ns() - start_ns) / static_cast<double>(count);
}

}  // namespace

// Link + drop-tail queue, including the DES events the link schedules
// (transmission completion and propagation delivery) and the arrival event.
double drive_link_ns_per_packet(std::uint64_t seed, std::size_t packets) {
  dmp::Scheduler sched;
  dmp::LinkConfig config;
  config.bandwidth_bps = kBottleneckBps;
  config.prop_delay = SimTime::millis(40);
  config.buffer_packets = 50;
  dmp::Link link(sched, config);
  std::size_t delivered = 0;
  link.set_receiver([&delivered](const Packet&) { ++delivered; });
  dmp::Rng rng(seed);
  const double gap_s = mean_gap(0.95).to_seconds();
  std::size_t sent = 0;
  std::function<void()> arrive = [&] {
    link.send(mixed_packet(rng, static_cast<std::int64_t>(sent)));
    if (++sent < packets) {
      sched.post_after(SimTime::seconds(rng.exponential(gap_s)), arrive);
    }
  };
  const std::int64_t start = now_ns();
  sched.post_after(SimTime::zero(), arrive);
  sched.run();
  const double ns = ns_per(start, packets);
  if (delivered + link.total_drops() != packets) {
    throw std::runtime_error("link lost packets");
  }
  return ns;
}

// One queue discipline's enqueue + dequeue, driven at 105% load so the
// controller is active.
double drive_qdisc_ns_per_packet(const std::string& spec, std::uint64_t seed,
                                 std::size_t packets) {
  dmp::QdiscSpec parsed = dmp::QdiscSpec::parse(spec);
  parsed.seed = seed;
  auto q = dmp::make_queue_discipline(parsed, 50);
  q->set_drain_rate(kBottleneckBps);
  dmp::Rng rng(seed);
  const double gap_s = mean_gap(1.05).to_seconds();
  SimTime t = SimTime::zero();
  SimTime busy_until = SimTime::zero();
  Packet out;
  std::size_t dequeued = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < packets; ++i) {
    t += SimTime::seconds(rng.exponential(gap_s));
    while (busy_until <= t && q->dequeue(&out, busy_until)) {
      busy_until += dmp::transmission_time(out.size_bytes, kBottleneckBps);
      ++dequeued;
    }
    if (busy_until < t) busy_until = t;
    Packet p = mixed_packet(rng, static_cast<std::int64_t>(i));
    p.injected = t;
    q->enqueue(p, t);
  }
  const double ns = ns_per(start, packets);
  if (dequeued == 0) throw std::runtime_error("qdisc never dequeued");
  return ns;
}

// Reno ACK processing: one ACK event per millisecond, with occasional
// triple duplicate ACKs that drive fast retransmit / fast recovery.
double drive_reno_ack_ns(std::uint64_t seed, std::size_t acks) {
  dmp::Scheduler sched;
  dmp::TcpConfig config;
  config.delayed_ack = false;
  std::size_t transmitted = 0;
  dmp::RenoSender sender(sched, 1, config,
                         [&transmitted](const Packet&) { ++transmitted; });
  std::int64_t tag = 0;
  auto refill = [&] {
    while (sender.space() > 0) sender.enqueue(tag++);
  };
  refill();
  dmp::Rng rng(seed);
  std::size_t done = 0;
  int dups_left = 0;
  std::function<void()> ack = [&] {
    Packet a;
    a.flow = 1;
    a.kind = PacketKind::kAck;
    a.size_bytes = dmp::kAckPacketBytes;
    if (dups_left > 0) {
      --dups_left;
      a.seq = sender.snd_una();
    } else {
      if (rng.uniform() < 0.01) dups_left = 3;
      a.seq = std::min(sender.snd_una() + 1, sender.snd_max());
    }
    sender.on_ack(a);
    refill();
    if (++done < acks) sched.post_after(SimTime::millis(1), ack);
  };
  const std::int64_t start = now_ns();
  sched.post_after(SimTime::millis(1), ack);
  sched.run_until(SimTime::seconds(static_cast<double>(acks) * 1e-3 + 1.0));
  const double ns = ns_per(start, done);
  if (transmitted == 0) throw std::runtime_error("sender never transmitted");
  return ns;
}

// Receiver reassembly: segments arrive shuffled within windows of 8, so most
// land in the reorder buffer before the gap fills.
double drive_sink_reorder_ns(std::uint64_t seed, std::size_t segments) {
  dmp::Scheduler sched;
  dmp::TcpConfig config;
  config.delayed_ack = false;
  std::size_t acks = 0, delivered = 0;
  dmp::TcpSink sink(sched, 1, config, [&acks](const Packet&) { ++acks; });
  sink.set_deliver_callback(
      [&delivered](std::int64_t, SimTime) { ++delivered; });
  dmp::Rng rng(seed);
  std::vector<std::int64_t> order(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }
  for (std::size_t base = 0; base + 8 <= segments; base += 8) {
    for (std::size_t i = 7; i > 0; --i) {
      std::swap(order[base + i], order[base + rng.uniform_int(i + 1)]);
    }
  }
  Packet p;
  p.flow = 1;
  p.kind = PacketKind::kData;
  p.size_bytes = dmp::kDataPacketBytes;
  const std::int64_t start = now_ns();
  for (std::int64_t seq : order) {
    p.seq = seq;
    p.app_tag = seq;
    sink.on_data(p);
  }
  const double ns = ns_per(start, segments);
  if (delivered != segments) throw std::runtime_error("sink lost segments");
  return ns;
}

// DMP server pull + PathScheduler::pick: a CBR packet joins the shared
// queue, then a random path's window opens, and every decision the policy
// makes is executed against the queue and the paths' send-buffer space.
double drive_pull_pick_ns(const std::string& spec, std::size_t paths,
                          std::uint64_t seed, std::size_t packets) {
  auto sched = dmp::make_path_scheduler(dmp::SchedulerSpec::parse(spec), paths);
  std::vector<dmp::SchedPathState> state(paths);
  dmp::Rng rng(seed);
  for (std::size_t k = 0; k < paths; ++k) {
    state[k].space = 8;
    state[k].srtt_s = 0.05 + 0.05 * static_cast<double>(k);
  }
  std::deque<std::int64_t> queue;
  std::size_t decisions = 0;
  auto drain = [&] {
    dmp::SchedDecision d;
    while (sched->pick(state, queue, &d)) {
      if (state[d.path].space == 0) throw std::runtime_error("pick overran");
      --state[d.path].space;
      if (d.kind == dmp::SchedDecision::Kind::kPull) {
        state[d.path].oldest_unacked = queue[d.queue_pos];
        queue.erase(queue.begin() + static_cast<long>(d.queue_pos));
      }
      ++decisions;
    }
  };
  const std::int64_t start = now_ns();
  for (std::size_t n = 0; n < packets; ++n) {
    queue.push_back(static_cast<std::int64_t>(n));
    sched->on_generate(static_cast<std::int64_t>(n));
    sched->on_offer();
    drain();
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(paths));
    if (state[k].space < 8) ++state[k].space;
    sched->on_window_open(k);
    drain();
  }
  return ns_per(start, decisions);
}

double drive_recorder_ns_per_record(std::uint64_t seed, std::size_t records) {
  dmp::obs::FlightRecorder recorder;
  dmp::Rng rng(seed);
  dmp::obs::FlightEvent e;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < records; ++i) {
    e.t_ns = static_cast<std::int64_t>(i) * 1000;
    e.kind = static_cast<dmp::obs::FlightEventKind>(i % 11);
    e.packet = static_cast<std::int64_t>(i / 8);
    e.path = static_cast<std::int32_t>(rng.uniform_int(4));
    e.queue = static_cast<std::int64_t>(i % 50);
    recorder.record(e);
  }
  const double ns = ns_per(start, records);
  if (recorder.size() != records) throw std::runtime_error("recorder lost events");
  return ns;
}

// inet framing: encode each frame header, then reassemble the byte stream
// through FrameParser in random read sizes.
double drive_framing_ns_per_frame(std::uint64_t seed, std::size_t frames) {
  constexpr std::size_t kRing = 256;
  const std::size_t frame_bytes = dmp::inet::kDefaultFrameBytes;
  std::vector<unsigned char> wire(kRing * frame_bytes, 0);
  dmp::inet::FrameParser parser(frame_bytes);
  dmp::Rng rng(seed);
  std::uint64_t parsed = 0, expected = 0;
  bool in_order = true;
  const std::int64_t start = now_ns();
  for (std::size_t base = 0; base < frames; base += kRing) {
    for (std::size_t i = 0; i < kRing; ++i) {
      dmp::inet::Frame f;
      f.packet_number = base + i;
      f.generated_ns = (base + i) * 333'333;
      dmp::inet::encode_frame_header(f, wire.data() + i * frame_bytes);
    }
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          wire.size() - off, 512 + rng.uniform_int(16 * 1024));
      parser.feed(wire.data() + off, chunk, [&](const dmp::inet::Frame& f) {
        in_order = in_order && f.packet_number == expected;
        ++expected;
        ++parsed;
      });
      off += chunk;
    }
  }
  const double ns = ns_per(start, static_cast<std::size_t>(parsed));
  if (!in_order) throw std::runtime_error("framing reordered frames");
  return ns;
}

// OrderedPool dispatch overhead: trivial work items through the pool.
double drive_pool_dispatch_us(std::size_t threads, std::size_t items) {
  const dmp::OrderedPool pool(threads);
  std::uint64_t total = 0;
  const std::int64_t start = now_ns();
  pool.run_ordered(
      items, [](std::size_t i) { return static_cast<std::uint64_t>(i) * 2; },
      [&total](std::size_t, std::uint64_t v) { total += v; });
  const double us = ns_per(start, items) * 1e-3;
  if (total != static_cast<std::uint64_t>(items) * (items - 1)) {
    throw std::runtime_error("pool dropped items");
  }
  return us;
}

}  // namespace perfbench
