#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dmp {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.post_at(SimTime::millis(30), [&] { order.push_back(3); });
  sched.post_at(SimTime::millis(10), [&] { order.push_back(1); });
  sched.post_at(SimTime::millis(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::millis(30));
}

TEST(Scheduler, FifoTieBreakAtSameInstant) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.post_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RelativeScheduling) {
  Scheduler sched;
  SimTime fired = SimTime::zero();
  sched.post_at(SimTime::millis(10), [&] {
    sched.post_after(SimTime::millis(25), [&] { fired = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired, SimTime::millis(35));
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler sched;
  sched.post_at(SimTime::millis(10), [] {});
  sched.run();
  EXPECT_THROW(sched.post_at(SimTime::millis(5), [] {}),
               std::invalid_argument);
  const std::uint32_t timer = sched.register_port([](void*) {}, nullptr);
  EXPECT_THROW(sched.arm_port_at(SimTime::millis(5), timer),
               std::invalid_argument);
  EXPECT_FALSE(sched.port_armed(timer));
  EXPECT_EQ(sched.events_scheduled(), 1u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  const std::uint32_t timer = sched.register_port(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &fired);
  EXPECT_FALSE(sched.port_armed(timer));
  sched.arm_port_at(SimTime::millis(10), timer);
  EXPECT_TRUE(sched.port_armed(timer));
  sched.cancel_port(timer);
  EXPECT_FALSE(sched.port_armed(timer));
  sched.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.events_cancelled(), 1u);
}

TEST(Scheduler, TimerNotArmedAfterFiring) {
  Scheduler sched;
  struct Ctx {
    Scheduler* sched;
    std::uint32_t timer;
    bool armed_in_callback;
  } ctx{&sched, 0, true};
  ctx.timer = sched.register_port(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->armed_in_callback = c->sched->port_armed(c->timer);
      },
      &ctx);
  sched.arm_port_at(SimTime::millis(1), ctx.timer);
  sched.run();
  EXPECT_FALSE(ctx.armed_in_callback);
  EXPECT_FALSE(sched.port_armed(ctx.timer));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  sched.post_at(SimTime::millis(10), [&] { ++fired; });
  sched.post_at(SimTime::millis(50), [&] { ++fired; });
  const auto executed = sched.run_until(SimTime::millis(20));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime::millis(20));
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) sched.post_after(SimTime::millis(1), tick);
  };
  sched.post_at(SimTime::zero(), tick);
  const auto executed = sched.run();
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(sched.now(), SimTime::millis(99));
}

TEST(Scheduler, ReschedulingPatternLikeTcpTimer) {
  // Re-arm repeatedly; only the final deadline fires, and every superseded
  // key is popped as a cancelled tombstone.
  Scheduler sched;
  std::vector<SimTime> fired;
  struct Ctx {
    Scheduler* sched;
    std::vector<SimTime>* fired;
  } ctx{&sched, &fired};
  const std::uint32_t timer = sched.register_port(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->fired->push_back(c->sched->now());
      },
      &ctx);
  for (int i = 0; i < 50; ++i) {
    sched.arm_port_at(SimTime::millis(100 + i), timer);
  }
  EXPECT_EQ(sched.pending_events(), 50u);
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{SimTime::millis(149)}));
  EXPECT_EQ(sched.events_executed(), 1u);
  EXPECT_EQ(sched.events_cancelled(), 49u);
}

TEST(Scheduler, CountsExecutedAndCancelledSeparately) {
  Scheduler sched;
  const std::uint32_t doomed = sched.register_port([](void*) {}, nullptr);
  sched.arm_port_at(SimTime::millis(5), doomed);
  sched.post_at(SimTime::millis(10), [] {});
  sched.post_at(SimTime::millis(20), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_EQ(sched.events_scheduled(), 3u);

  sched.cancel_port(doomed);
  // Lazy cancellation: the entry stays in the heap until popped, so it
  // still counts as pending until the run drains it.
  EXPECT_EQ(sched.pending_events(), 3u);

  sched.run();
  EXPECT_EQ(sched.events_executed(), 2u);
  EXPECT_EQ(sched.events_cancelled(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.max_events_pending(), 3u);
}

TEST(Scheduler, MaxPendingTracksHighWater) {
  Scheduler sched;
  // Burst of 5, drained, then a burst of 2: high water must stay at 5.
  for (int i = 0; i < 5; ++i) sched.post_at(SimTime::millis(i + 1), [] {});
  sched.run();
  sched.post_at(SimTime::millis(100), [] {});
  sched.post_at(SimTime::millis(101), [] {});
  sched.run();
  EXPECT_EQ(sched.max_events_pending(), 5u);
  EXPECT_EQ(sched.events_executed(), 7u);
  EXPECT_EQ(sched.events_cancelled(), 0u);
}

TEST(Scheduler, StepHonorsHorizon) {
  Scheduler sched;
  sched.post_at(SimTime::millis(10), [] {});
  EXPECT_FALSE(sched.step(SimTime::millis(5)));
  EXPECT_TRUE(sched.step(SimTime::millis(10)));
  EXPECT_FALSE(sched.step(SimTime::max()));
}

}  // namespace
}  // namespace dmp
