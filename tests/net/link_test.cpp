#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace dmp {
namespace {

Packet data_packet(FlowId flow, std::int64_t seq,
                   std::uint32_t bytes = kDataPacketBytes) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TEST(Link, DeliversAfterTransmissionPlusPropagation) {
  Scheduler sched;
  // 1500 B at 1.2 Mbps = 10 ms serialization; + 40 ms propagation = 50 ms.
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(40), 0});
  SimTime delivered = SimTime::zero();
  link.set_receiver([&](const Packet&) { delivered = sched.now(); });
  link.send(data_packet(1, 0));
  sched.run();
  EXPECT_EQ(delivered, SimTime::millis(50));
}

TEST(Link, SerializesBackToBackPackets) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(40), 10});
  std::vector<SimTime> deliveries;
  link.set_receiver([&](const Packet&) { deliveries.push_back(sched.now()); });
  for (int i = 0; i < 3; ++i) link.send(data_packet(1, i));
  sched.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], SimTime::millis(50));
  EXPECT_EQ(deliveries[1], SimTime::millis(60));  // pipelined: +1 tx time
  EXPECT_EQ(deliveries[2], SimTime::millis(70));
}

TEST(Link, DropTailWhenBufferFull) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(1), 2});
  int received = 0;
  link.set_receiver([&](const Packet&) { ++received; });
  // 1 in flight + 2 queued + 2 dropped.
  for (int i = 0; i < 5; ++i) link.send(data_packet(7, i));
  sched.run();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(link.total_drops(), 2u);
  EXPECT_EQ(link.total_arrivals(), 5u);
  EXPECT_EQ(link.flow_counters(7).drops, 2u);
  EXPECT_EQ(link.flow_counters(7).arrivals, 5u);
}

TEST(Link, UnboundedBufferNeverDrops) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(1), 0});
  int received = 0;
  link.set_receiver([&](const Packet&) { ++received; });
  for (int i = 0; i < 500; ++i) link.send(data_packet(1, i));
  sched.run();
  EXPECT_EQ(received, 500);
  EXPECT_EQ(link.total_drops(), 0u);
}

TEST(Link, PreservesFifoOrder) {
  Scheduler sched;
  Link link(sched, LinkConfig{10e6, SimTime::millis(5), 100});
  std::vector<std::int64_t> seqs;
  link.set_receiver([&](const Packet& p) { seqs.push_back(p.seq); });
  for (int i = 0; i < 50; ++i) link.send(data_packet(1, i));
  sched.run();
  ASSERT_EQ(seqs.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seqs[static_cast<size_t>(i)], i);
}

TEST(Link, PerFlowCountersAreSeparate) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(1), 1});
  link.set_receiver([](const Packet&) {});
  link.send(data_packet(1, 0));  // in flight
  link.send(data_packet(2, 0));  // queued
  link.send(data_packet(3, 0));  // dropped
  sched.run();
  EXPECT_EQ(link.flow_counters(1).drops, 0u);
  EXPECT_EQ(link.flow_counters(2).drops, 0u);
  EXPECT_EQ(link.flow_counters(3).drops, 1u);
  EXPECT_EQ(link.flow_counters(99).arrivals, 0u);
}

TEST(Link, SmallPacketsTransmitFaster) {
  Scheduler sched;
  Link link(sched, LinkConfig{1e6, SimTime::zero(), 0});
  std::vector<SimTime> deliveries;
  link.set_receiver([&](const Packet&) { deliveries.push_back(sched.now()); });
  link.send(data_packet(1, 0, 1000));  // 8 ms at 1 Mbps
  link.send(data_packet(1, 1, 125));   // 1 ms
  sched.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], SimTime::millis(8));
  EXPECT_EQ(deliveries[1], SimTime::millis(9));
}

TEST(Link, UtilizationReflectsBusyTime) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::zero(), 0});
  link.set_receiver([](const Packet&) {});
  // 10 packets x 10 ms = 100 ms busy.
  for (int i = 0; i < 10; ++i) link.send(data_packet(1, i));
  sched.run();
  EXPECT_NEAR(link.utilization(SimTime::millis(200)), 0.5, 1e-9);
}

// A link at 100% load with propagation far above transmission time never
// goes idle, so an in-flight store that is only reset when it empties grows
// with every packet carried.  Storage must track the in-flight high-water
// mark instead.
TEST(Link, InFlightStorageBoundedOnLinkThatNeverIdles) {
  Scheduler sched;
  // 1500 B at 12 Mbps = 1 ms on the wire; 100 ms propagation keeps ~100
  // packets in flight.
  Link link(sched, LinkConfig{12e6, SimTime::millis(100), 0});
  std::int64_t delivered = 0;
  std::int64_t next_expected = 0;
  link.set_receiver([&](const Packet& p) {
    EXPECT_EQ(p.seq, next_expected++);
    ++delivered;
  });
  constexpr std::int64_t kPackets = 150'000;
  std::int64_t sent = 0;
  std::size_t peak_in_flight = 0;
  std::size_t idle_sends = 0;
  std::function<void()> tick = [&] {
    if (sent > 200 && link.in_flight() == 0) ++idle_sends;
    peak_in_flight = std::max(peak_in_flight, link.in_flight());
    link.send(data_packet(1, sent++));
    if (sent < kPackets) sched.post_after(SimTime::millis(1), tick);
  };
  sched.post_at(SimTime::zero(), tick);
  sched.run();
  EXPECT_EQ(delivered, kPackets);
  EXPECT_EQ(idle_sends, 0u);  // the delivery FIFO never drained mid-run
  EXPECT_GE(peak_in_flight, 99u);
  EXPECT_LE(peak_in_flight, 101u);
  EXPECT_LE(link.in_flight_capacity(), 2 * peak_in_flight);
  EXPECT_EQ(link.in_flight(), 0u);
}

TEST(Link, RejectsNonPositiveBandwidth) {
  Scheduler sched;
  EXPECT_THROW(Link(sched, LinkConfig{0.0, SimTime::zero(), 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmp
