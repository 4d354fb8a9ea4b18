// Fault layer unit tests: spec parsing, link fault semantics, and the
// injector's arm-time validation + schedule-driven replay.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/link.hpp"

namespace dmp::fault {
namespace {

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("   \t ").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ;; ").empty());
}

TEST(FaultPlan, ParsesEveryKind) {
  const auto plan = FaultPlan::parse(
      "3.0 link_down path1; 8.0 link_up path1; 1.5 burst_loss path0 7; "
      "2 rescale path0 bw=0.5 delay=2; 4 conn_reset path2");
  ASSERT_EQ(plan.size(), 5u);
  // Stably sorted by time.
  EXPECT_EQ(plan.events[0].kind, FaultKind::kBurstLoss);
  EXPECT_EQ(plan.events[0].count, 7u);
  EXPECT_EQ(plan.events[0].target, "path0");
  EXPECT_EQ(plan.events[1].kind, FaultKind::kRescale);
  EXPECT_DOUBLE_EQ(plan.events[1].bw_factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.events[1].delay_factor, 2.0);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkDown);
  EXPECT_DOUBLE_EQ(plan.events[2].t_s, 3.0);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kConnReset);
  EXPECT_EQ(plan.events[3].target, "path2");
  EXPECT_EQ(plan.events[4].kind, FaultKind::kLinkUp);
}

TEST(FaultPlan, SimultaneousEventsKeepSpecOrder) {
  const auto plan =
      FaultPlan::parse("5 link_up path0; 5 link_down path1; 5 link_up path2");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events[0].target, "path0");
  EXPECT_EQ(plan.events[1].target, "path1");
  EXPECT_EQ(plan.events[2].target, "path2");
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string spec =
      "1.5 burst_loss path0 7; 2 rescale path0 bw=0.5 delay=2; "
      "3 link_down path1; 8 link_up path1";
  const auto plan = FaultPlan::parse(spec);
  const auto reparsed = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(reparsed.size(), plan.size());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlan, RejectsMalformedEvents) {
  EXPECT_THROW(FaultPlan::parse("3 explode path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("-1 link_down path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("x link_down path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 link_down"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 link_down path0 extra"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 burst_loss path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 burst_loss path0 0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 burst_loss path0 -2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0 speed=2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0 bw=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("3 rescale path0 bw=nope"),
               std::invalid_argument);
}

TEST(FaultPlan, ErrorNamesTheOffendingEvent) {
  try {
    FaultPlan::parse("1 link_down path0; 3 explode path1");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("3 explode path1"),
              std::string::npos);
  }
}

// One FaultPlan mutant: the spec and the event text the parser blames if
// it rejects the spec (the mutated event, as split on ';').  Reordered
// mutants must parse to the original plan.
struct PlanMutant {
  std::string spec;
  std::string event;
  bool reordered = false;
};

// Deterministic mutants of a valid three-event spec: truncations at every
// byte, case flips of every letter, surrounding whitespace and separators,
// appended bytes, adjacent fields swapped within each event, and reordered
// events.  Each mutates one event, so the event the parser blames is known.
std::vector<PlanMutant> plan_mutants(const std::vector<std::string>& events) {
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i != 0) out += ';';
      out += parts[i];
    }
    return out;
  };
  const std::string spec = join(events);
  std::vector<PlanMutant> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<std::string> parts(events.begin(), events.begin() + i);
    for (std::size_t n = 0; n < events[i].size(); ++n) {
      parts.push_back(events[i].substr(0, n));
      out.push_back({join(parts), parts.back()});
      parts.pop_back();
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t c = 0; c < events[i].size(); ++c) {
      if (events[i][c] < 'a' || events[i][c] > 'z') continue;
      std::vector<std::string> parts = events;
      parts[i][c] = static_cast<char>(parts[i][c] - 'a' + 'A');
      out.push_back({join(parts), parts[i]});
    }
  }
  for (const std::string ws : {" ", "\t", "\n", "\r", ";", " ; "}) {
    out.push_back({ws + spec, ws + events.front()});
    out.push_back({spec + ws, events.back() + ws});
    out.push_back({ws + spec + ws, events.back() + ws});
  }
  for (const char c : {'x', '0', ':', ',', '=', '|', '\x7f', '\xff'}) {
    out.push_back({spec + c, events.back() + c});
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<std::string> tokens;
    std::istringstream in(events[i]);
    for (std::string t; in >> t;) tokens.push_back(t);
    for (std::size_t j = 0; j + 1 < tokens.size(); ++j) {
      std::vector<std::string> swapped = tokens;
      std::swap(swapped[j], swapped[j + 1]);
      std::vector<std::string> parts = events;
      parts[i] = i == 0 ? "" : " ";
      for (std::size_t t = 0; t < swapped.size(); ++t) {
        parts[i] += (t == 0 ? "" : " ") + swapped[t];
      }
      out.push_back({join(parts), parts[i]});
    }
  }
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    std::vector<std::string> parts = events;
    std::swap(parts[i], parts[i + 1]);
    out.push_back({join(parts), "", true});
  }
  return out;
}

TEST(FaultPlan, MutatedSpecsRoundTripOrThrowThePinnedMessage) {
  const std::vector<std::string> events{"1.5 burst_loss path0 7",
                                        " 2 rescale path1 bw=0.5 delay=2",
                                        " 3 link_down path1"};
  const std::string ok;  // parses and round-trips
  const std::string shape = "expected '<time> <kind> <target> ...'";
  const std::string count = "burst_loss takes one count";
  const std::string args = "rescale needs bw=<factor> and/or delay=<factor>";
  const std::vector<std::string> whys{
      ok, shape, shape, shape, shape, shape, shape, shape, shape, shape, shape,
      shape, shape, shape, shape, shape, count, count, count, count, count,
      count, ok, ok, shape, shape, shape, shape, shape, shape, shape, shape,
      shape, shape, args, args, args, args, args, args,
      "unknown rescale argument 'b'", "unknown rescale argument 'bw'",
      "factor '' is not a number", "factors must be > 0", "factors must be > 0",
      ok, ok, "unknown rescale argument 'd'", "unknown rescale argument 'de'",
      "unknown rescale argument 'del'", "unknown rescale argument 'dela'",
      "unknown rescale argument 'delay'", "factor '' is not a number", ok, ok,
      shape, shape, shape, shape, shape, shape, shape, shape, shape, shape,
      shape, shape, ok, ok, ok, ok, "unknown kind 'Burst_loss'",
      "unknown kind 'bUrst_loss'", "unknown kind 'buRst_loss'",
      "unknown kind 'burSt_loss'", "unknown kind 'bursT_loss'",
      "unknown kind 'burst_Loss'", "unknown kind 'burst_lOss'",
      "unknown kind 'burst_loSs'", "unknown kind 'burst_losS'", ok, ok, ok, ok,
      "unknown kind 'Rescale'", "unknown kind 'rEscale'",
      "unknown kind 'reScale'", "unknown kind 'resCale'",
      "unknown kind 'rescAle'", "unknown kind 'rescaLe'",
      "unknown kind 'rescalE'", ok, ok, ok, ok,
      "unknown rescale argument 'Bw=0.5'", "unknown rescale argument 'bW=0.5'",
      "unknown rescale argument 'Delay=2'",
      "unknown rescale argument 'dElay=2'",
      "unknown rescale argument 'deLay=2'",
      "unknown rescale argument 'delAy=2'",
      "unknown rescale argument 'delaY=2'", "unknown kind 'Link_down'",
      "unknown kind 'lInk_down'", "unknown kind 'liNk_down'",
      "unknown kind 'linK_down'", "unknown kind 'link_Down'",
      "unknown kind 'link_dOwn'", "unknown kind 'link_doWn'",
      "unknown kind 'link_dowN'", ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok,
      ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok,
      ok, "time 'burst_loss' is not a number", "unknown kind 'path0'",
      "count 'path0' is not a non-negative integer",
      "time 'rescale' is not a number", "unknown kind 'path1'",
      "unknown rescale argument 'path1'", ok,
      "time 'link_down' is not a number", "unknown kind 'path1'", ok, ok,
  };
  const std::string canonical =
      FaultPlan::parse(events[0] + ";" + events[1] + ";" + events[2])
          .to_string();
  const std::vector<PlanMutant> mutants = plan_mutants(events);
  ASSERT_EQ(mutants.size(), whys.size());  // the sweep cannot silently shrink
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const PlanMutant& m = mutants[i];
    try {
      const FaultPlan plan = FaultPlan::parse(m.spec);
      EXPECT_EQ(whys[i], "") << "accepted '" << m.spec << "'";
      const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
      EXPECT_EQ(reparsed.size(), plan.size()) << m.spec;
      EXPECT_EQ(reparsed.to_string(), plan.to_string()) << m.spec;
      if (m.reordered) {
        EXPECT_EQ(plan.to_string(), canonical) << m.spec;
      }
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "fault plan: bad event '" + m.event + "': " + whys[i])
          << "mutant " << i << " '" << m.spec << "'";
    }
  }
}

TEST(FaultPlan, ParsePathIndex) {
  std::size_t index = 99;
  EXPECT_TRUE(parse_path_index("path0", &index));
  EXPECT_EQ(index, 0u);
  EXPECT_TRUE(parse_path_index("path12", &index));
  EXPECT_EQ(index, 12u);
  EXPECT_FALSE(parse_path_index("path", &index));
  EXPECT_FALSE(parse_path_index("path1x", &index));
  EXPECT_FALSE(parse_path_index("link0", &index));
  EXPECT_EQ(index, 12u) << "failed parses must not clobber the output";
}

// --- link fault semantics ---

Packet data_packet(FlowId flow, std::int64_t seq) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = kDataPacketBytes;
  return p;
}

TEST(LinkFaults, DownDropsArrivalsAndFreezesQueue) {
  Scheduler sched;
  // 1500 B at 1.2 Mbps = 10 ms serialization, 1 ms propagation.
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(1), 0});
  std::vector<SimTime> deliveries;
  link.set_receiver([&](const Packet&) { deliveries.push_back(sched.now()); });

  // One on the wire, two queued, then the link goes down.
  for (int i = 0; i < 3; ++i) link.send(data_packet(1, i));
  link.set_down(true);
  // Arrivals while down are fault drops, not congestion drops.
  link.send(data_packet(1, 3));
  sched.run_until(SimTime::millis(100));
  // The in-flight transmission completed; the queue stayed frozen.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], SimTime::millis(11));
  EXPECT_EQ(link.queue_length(), 2u);
  EXPECT_EQ(link.fault_drops(), 1u);
  EXPECT_EQ(link.total_drops(), 0u) << "fault drops are not drop-tail drops";

  // Raising the link resumes draining the frozen queue.
  link.set_down(false);
  sched.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[1], SimTime::millis(111));
  EXPECT_EQ(deliveries[2], SimTime::millis(121));
}

TEST(LinkFaults, BurstLossDropsExactlyTheNextN) {
  Scheduler sched;
  Link link(sched, LinkConfig{10e6, SimTime::millis(1), 0});
  std::vector<std::int64_t> seqs;
  link.set_receiver([&](const Packet& p) { seqs.push_back(p.seq); });
  link.drop_next(2);
  EXPECT_EQ(link.burst_remaining(), 2u);
  for (int i = 0; i < 5; ++i) link.send(data_packet(1, i));
  sched.run();
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs[0], 2);
  EXPECT_EQ(link.fault_drops(), 2u);
  EXPECT_EQ(link.burst_remaining(), 0u);
}

TEST(LinkFaults, RescaleIsRelativeToBaseAndDoesNotCompound) {
  Scheduler sched;
  Link link(sched, LinkConfig{1.2e6, SimTime::millis(10), 0});
  std::vector<SimTime> deliveries;
  link.set_receiver([&](const Packet&) { deliveries.push_back(sched.now()); });

  // Halve bandwidth twice: factors are relative to the constructed config,
  // so the second call is a no-op, not a quarter.
  link.rescale(0.5, 1.0);
  link.rescale(0.5, 1.0);
  link.send(data_packet(1, 0));
  sched.run();
  // 1500 B at 0.6 Mbps = 20 ms serialization + 10 ms propagation.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], SimTime::millis(30));

  // Restoring factor 1 restores the constructed timing exactly.
  link.rescale(1.0, 1.0);
  deliveries.clear();
  link.send(data_packet(1, 1));
  sched.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0] - SimTime::millis(30), SimTime::millis(20));

  EXPECT_THROW(link.rescale(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(link.rescale(1.0, -2.0), std::invalid_argument);
}

// --- injector replay ---

struct RecordedCall {
  double t_s;
  std::string what;
};

TEST(FaultInjector, ReplaysThePlanAtEpochRelativeTimes) {
  Scheduler sched;
  auto plan = FaultPlan::parse(
      "1 link_down path0; 2 burst_loss path1 5; 3 rescale path1 bw=0.5; "
      "4 link_up path0");
  FaultInjector injector(sched, std::move(plan), SimTime::seconds(10.0));

  std::vector<RecordedCall> calls;
  const auto now_s = [&] { return sched.now().to_seconds(); };
  PathFaultTarget p0;
  p0.set_down = [&](bool down) {
    calls.push_back({now_s(), down ? "down0" : "up0"});
  };
  PathFaultTarget p1;
  p1.set_down = [&](bool) { calls.push_back({now_s(), "down1"}); };
  p1.burst_loss = [&](std::uint64_t n) {
    calls.push_back({now_s(), "burst1x" + std::to_string(n)});
  };
  p1.rescale = [&](double bw, double) {
    calls.push_back({now_s(), "rescale1@" + std::to_string(bw)});
  };
  injector.add_path("path0", 0, std::move(p0));
  injector.add_path("path1", 1, std::move(p1));
  injector.arm();
  EXPECT_EQ(injector.events_armed(), 4u);
  EXPECT_EQ(injector.events_fired(), 0u);

  sched.run();
  EXPECT_EQ(injector.events_fired(), 4u);
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0].what, "down0");
  EXPECT_DOUBLE_EQ(calls[0].t_s, 11.0);  // epoch 10 + event time 1
  EXPECT_EQ(calls[1].what, "burst1x5");
  EXPECT_DOUBLE_EQ(calls[1].t_s, 12.0);
  EXPECT_EQ(calls[2].what, "rescale1@0.500000");
  EXPECT_EQ(calls[3].what, "up0");
  EXPECT_DOUBLE_EQ(calls[3].t_s, 14.0);
}

TEST(FaultInjector, EmptyPlanSchedulesNothing) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan{}, SimTime::zero());
  injector.arm();
  EXPECT_EQ(injector.events_armed(), 0u);
  EXPECT_EQ(sched.events_pending(), 0u);
}

TEST(FaultInjector, ArmRejectsUnknownTargets) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan::parse("1 link_down path7"),
                         SimTime::zero());
  PathFaultTarget target;
  target.set_down = [](bool) {};
  injector.add_path("path0", 0, std::move(target));
  EXPECT_THROW(injector.arm(), std::invalid_argument);
  EXPECT_EQ(sched.events_pending(), 0u)
      << "a rejected plan must schedule nothing";
}

TEST(FaultInjector, ArmRejectsMissingCapability) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan::parse("1 burst_loss path0 3"),
                         SimTime::zero());
  PathFaultTarget target;
  target.set_down = [](bool) {};  // no burst_loss capability
  injector.add_path("path0", 0, std::move(target));
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

TEST(FaultInjector, ArmRejectsConnResetInSimulation) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan::parse("1 conn_reset path0"),
                         SimTime::zero());
  PathFaultTarget target;
  target.set_down = [](bool) {};
  injector.add_path("path0", 0, std::move(target));
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

TEST(FaultInjector, LifecycleMisuseThrows) {
  Scheduler sched;
  FaultInjector injector(sched, FaultPlan{}, SimTime::zero());
  injector.arm();
  EXPECT_THROW(injector.arm(), std::logic_error);
  PathFaultTarget target;
  target.set_down = [](bool) {};
  EXPECT_THROW(injector.add_path("path0", 0, std::move(target)),
               std::logic_error);
}

}  // namespace
}  // namespace dmp::fault
