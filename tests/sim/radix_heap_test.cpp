// Differential suite for the default DES backend (`DMP_DES=calendar`,
// the radix heap of src/sim/radix_heap.hpp).  The raw-structure suite keeps
// the name CalendarQueue after the backend spec.
//
// Two layers:
//   * raw RadixHeap vs std::priority_queue over the same (when, seq)
//     keys — pop order must be bit-identical under randomized workloads
//     that hit every structural path (direct pushes at every bit level,
//     same-nanosecond ties appended, sorted-inserted and refilled out of
//     seq order, rebase on a push below the last minimum);
//   * full Scheduler(kHeap) vs Scheduler(kCalendar) driven by op streams
//     (timer arm / cancel / re-arm, post / port / defer+arm, run_until
//     horizons) — execution order, clocks and every counter must match
//     exactly.
#include "sim/radix_heap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp {
namespace {

struct Key {
  SimTime when;
  std::uint64_t seq;
};

struct KeyGreater {
  bool operator()(const Key& a, const Key& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

// Reference model: a binary heap over the same keys.
using RefQueue = std::priority_queue<Key, std::vector<Key>, KeyGreater>;

void expect_same_pop(RadixHeap<Key>& radix, RefQueue& ref) {
  ASSERT_EQ(radix.size(), ref.size());
  ASSERT_FALSE(radix.empty());
  const Key want = ref.top();
  ref.pop();
  EXPECT_EQ(radix.min().when.ns(), want.when.ns());
  EXPECT_EQ(radix.min().seq, want.seq);
  const Key got = radix.pop_min();
  ASSERT_EQ(got.when.ns(), want.when.ns());
  ASSERT_EQ(got.seq, want.seq);
}

void drain_same(RadixHeap<Key>& radix, RefQueue& ref) {
  while (!ref.empty()) expect_same_pop(radix, ref);
  EXPECT_TRUE(radix.empty());
  EXPECT_EQ(radix.size(), 0u);
}

TEST(CalendarQueue, RandomizedDifferentialAgainstHeap) {
  std::mt19937_64 rng(20070811);
  RadixHeap<Key> radix;
  RefQueue ref;
  std::uint64_t seq = 0;
  std::int64_t clock_ns = 0;  // keys mostly advance with this
  // 100k mixed ops: 55% push near the clock, 10% push a same-time tie,
  // 5% push a far-future sentinel, 30% pop.
  for (int op = 0; op < 100000; ++op) {
    const int kind = static_cast<int>(rng() % 100);
    if (kind < 55 || ref.empty()) {
      clock_ns += static_cast<std::int64_t>(rng() % 5000);
      const Key k{SimTime::nanos(clock_ns), seq++};
      radix.push(k);
      ref.push(k);
    } else if (kind < 65) {
      // Exact tie with the previous key: FIFO order decided by seq alone.
      const Key k{SimTime::nanos(clock_ns), seq++};
      radix.push(k);
      ref.push(k);
    } else if (kind < 70) {
      // Far-future sentinel (idle timer): a high bucket, split late.
      const Key k{SimTime::nanos(clock_ns + 10'000'000'000), seq++};
      radix.push(k);
      ref.push(k);
    } else {
      expect_same_pop(radix, ref);
    }
  }
  drain_same(radix, ref);
}

TEST(CalendarQueue, SameTimeBurstPushedInReverseSeqOrder) {
  // Every push lands before the bucket tail, so the refill into bucket 0
  // must sort; pops must still come out in ascending seq.
  RadixHeap<Key> radix;
  RefQueue ref;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const Key k{SimTime::millis(5), 1000 - i};
    radix.push(k);
    ref.push(k);
  }
  drain_same(radix, ref);
}

TEST(CalendarQueue, RewindOnPushBelowCurrentDay) {
  // Advance the minimum deep into the key range, then push keys below
  // every pending event — the rebase path must keep the order exact.
  std::mt19937_64 rng(42);
  RadixHeap<Key> radix;
  RefQueue ref;
  std::uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const Key k{SimTime::nanos(1'000'000 + i * 777), seq++};
    radix.push(k);
    ref.push(k);
  }
  for (int i = 0; i < 1500; ++i) expect_same_pop(radix, ref);
  for (int i = 0; i < 200; ++i) {
    // Below the first batch entirely (the scheduler forbids this, the raw
    // structure must not).
    const Key k{SimTime::nanos(static_cast<std::int64_t>(rng() % 1000)),
                seq++};
    radix.push(k);
    ref.push(k);
  }
  drain_same(radix, ref);
}

TEST(CalendarQueue, SameWhenKeysRefilledOutOfSeqOrder) {
  // Same-`when` keys pushed far ahead of the minimum in descending seq
  // order sit in a high bucket in that order; they reach bucket 0 only
  // through one or more refills, which must restore ascending seq.
  RadixHeap<Key> radix;
  RefQueue ref;
  std::mt19937_64 rng(5);
  std::uint64_t seq = 1000;
  auto push = [&](std::int64_t ns, std::uint64_t s) {
    const Key k{SimTime::nanos(ns), s};
    radix.push(k);
    ref.push(k);
  };
  push(1, seq++);
  for (std::int64_t when : {4096, 4097, 70'000, 1 << 24}) {
    for (int i = 0; i < 40; ++i) push(when, --seq - 100);
  }
  // Interleave lower keys so the high buckets are split several times.
  for (int i = 0; i < 300; ++i) {
    push(static_cast<std::int64_t>(2 + rng() % 5000), seq + 1000 + i);
  }
  drain_same(radix, ref);
}

TEST(CalendarQueue, OlderSeqPushedAtCurrentWhen) {
  // A deferred key is armed with the seq it claimed earlier: after a pop
  // at T it can land in bucket 0 below the tail (and below the live head).
  RadixHeap<Key> radix;
  RefQueue ref;
  auto push = [&](std::uint64_t s, std::int64_t ns = 7000) {
    const Key k{SimTime::nanos(ns), s};
    radix.push(k);
    ref.push(k);
  };
  for (std::uint64_t s : {10, 40, 60}) push(s);
  push(70, 9000);
  expect_same_pop(radix, ref);  // (7000, 10): bucket 0 now holds 40, 60
  push(50);                     // between head and tail
  push(20);                     // below the live head
  push(80);                     // plain append
  expect_same_pop(radix, ref);
  push(30);
  drain_same(radix, ref);
}

TEST(CalendarQueue, KeysSpanEveryBitLevel) {
  // Keys from 0 to just below INT64_MAX: every bucket a non-negative key
  // can reach (bits 0-62) is used, and refills cascade down from the top.
  std::mt19937_64 rng(64);
  RadixHeap<Key> radix;
  RefQueue ref;
  std::uint64_t seq = 0;
  auto push = [&](std::int64_t ns) {
    const Key k{SimTime::nanos(ns), seq++};
    radix.push(k);
    ref.push(k);
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int round = 0; round < 4; ++round) {
    push(0);
    for (int level = 0; level < 63; ++level) {
      const std::int64_t base = std::int64_t{1} << level;
      push(base + static_cast<std::int64_t>(
                      rng() % static_cast<std::uint64_t>(base)));
    }
    push(kMax - static_cast<std::int64_t>(rng() % 16));
    push(kMax - 1);
  }
  for (int i = 0; i < 120; ++i) expect_same_pop(radix, ref);
  // Pushes above the current minimum at every remaining distance.
  const std::int64_t floor_ns = ref.top().when.ns();
  for (int level = 0; level < 63; ++level) {
    const std::int64_t step = std::int64_t{1} << level;
    if (floor_ns <= kMax - step) push(floor_ns + step);
  }
  drain_same(radix, ref);
}

// ---------------------------------------------------------------------------
// Scheduler-level differential: one op stream, two backends.

struct SchedLog {
  std::vector<std::int64_t> fired_at_ns;
  std::vector<int> fired_id;
};

// Emulates the link-style deferred FIFO: claimed (when, seq) keys wait in
// order, only the head is armed, the port pops and re-arms.
struct DeferFifo {
  Scheduler* sched = nullptr;
  SchedLog* log = nullptr;
  std::vector<std::pair<Scheduler::Deferred, int>> q;
  std::size_t head = 0;
  std::uint32_t port_id = 0;

  static void fire(void* ctx) {
    auto* self = static_cast<DeferFifo*>(ctx);
    const auto item = self->q[self->head++];
    if (self->head < self->q.size()) {
      self->sched->arm_deferred(self->q[self->head].first, self->port_id);
    } else {
      self->q.clear();
      self->head = 0;
    }
    self->log->fired_at_ns.push_back(self->sched->now().ns());
    self->log->fired_id.push_back(item.second);
  }

  void push(SimTime when, int id) {
    const auto d = sched->defer_at(when);
    const bool was_empty = head == q.size();
    q.emplace_back(d, id);
    if (was_empty) sched->arm_deferred(d, port_id);
  }
};

// A pool of registered timer ports.  Each arm gives the timer a fresh id,
// which it logs when (and only if) that arm fires.
struct TimerPool {
  struct Timer {
    Scheduler* sched;
    SchedLog* log;
    std::uint32_t port;
    int id;
  };
  Scheduler* sched;
  std::vector<Timer> timers;

  TimerPool(Scheduler& s, SchedLog& log, std::size_t n) : sched(&s) {
    timers.resize(n, Timer{&s, &log, 0, -1});
    for (Timer& t : timers) t.port = s.register_port(&TimerPool::fire, &t);
  }

  static void fire(void* ctx) {
    const auto* t = static_cast<Timer*>(ctx);
    t->log->fired_at_ns.push_back(t->sched->now().ns());
    t->log->fired_id.push_back(t->id);
  }

  // Arms a random idle timer, if any, with `id`.
  void arm_idle(std::mt19937_64& rng, SimTime when, int id) {
    const std::size_t start = rng() % timers.size();
    for (std::size_t i = 0; i < timers.size(); ++i) {
      Timer& t = timers[(start + i) % timers.size()];
      if (sched->port_armed(t.port)) continue;
      t.id = id;
      sched->arm_port_at(when, t.port);
      return;
    }
  }

  // Cancels a random armed timer, if any.
  void cancel_armed(std::mt19937_64& rng) {
    std::vector<std::uint32_t> armed;
    for (const Timer& t : timers) {
      if (sched->port_armed(t.port)) armed.push_back(t.port);
    }
    if (!armed.empty()) sched->cancel_port(armed[rng() % armed.size()]);
  }
};

SchedLog drive_mixed_workload(SchedulerBackend backend) {
  Scheduler sched(backend);
  SchedLog log;
  std::mt19937_64 rng(777);
  TimerPool timers(sched, log, 64);
  int next_id = 0;

  // One registered port firing a fixed id, plus a deferred FIFO.
  struct PortCtx {
    Scheduler* sched;
    SchedLog* log;
  } port_ctx{&sched, &log};
  const std::uint32_t port = sched.register_port(
      [](void* ctx) {
        auto* c = static_cast<PortCtx*>(ctx);
        c->log->fired_at_ns.push_back(c->sched->now().ns());
        c->log->fired_id.push_back(-1);
      },
      &port_ctx);

  DeferFifo fifo;
  fifo.sched = &sched;
  fifo.log = &log;
  fifo.port_id = sched.register_port(&DeferFifo::fire, &fifo);
  SimTime fifo_tail = SimTime::zero();  // keys must be nondecreasing

  for (int round = 0; round < 200; ++round) {
    for (int op = 0; op < 50; ++op) {
      const int kind = static_cast<int>(rng() % 100);
      const SimTime when =
          sched.now() + SimTime::nanos(static_cast<std::int64_t>(
                            rng() % 2'000'000));
      if (kind < 35) {
        timers.arm_idle(rng, when, next_id++);
      } else if (kind < 55) {
        const int id = next_id++;
        sched.post_at(when, [&log, &sched, id] {
          log.fired_at_ns.push_back(sched.now().ns());
          log.fired_id.push_back(id);
        });
      } else if (kind < 70) {
        sched.post_port_at(when, port);
      } else if (kind < 85) {
        if (when > fifo_tail) fifo_tail = when;
        fifo.push(fifo_tail, next_id++);
      } else {
        timers.cancel_armed(rng);
      }
    }
    sched.run_until(sched.now() + SimTime::nanos(static_cast<std::int64_t>(
                                      rng() % 3'000'000)));
  }
  sched.run();

  // Counters ride along in the log tail for a single comparison.
  log.fired_at_ns.push_back(static_cast<std::int64_t>(sched.events_executed()));
  log.fired_at_ns.push_back(
      static_cast<std::int64_t>(sched.events_cancelled()));
  log.fired_at_ns.push_back(
      static_cast<std::int64_t>(sched.max_events_pending()));
  log.fired_at_ns.push_back(static_cast<std::int64_t>(sched.pending_events()));
  return log;
}

TEST(SchedulerBackendDifferential, MixedWorkloadIsBitIdentical) {
  const SchedLog heap = drive_mixed_workload(SchedulerBackend::kHeap);
  const SchedLog cal = drive_mixed_workload(SchedulerBackend::kCalendar);
  ASSERT_GT(heap.fired_id.size(), 1000u);
  EXPECT_GT(heap.fired_at_ns[heap.fired_at_ns.size() - 3], 0)
      << "some timers must be cancelled";
  ASSERT_EQ(heap.fired_id.size(), cal.fired_id.size());
  ASSERT_EQ(heap.fired_at_ns.size(), cal.fired_at_ns.size());
  for (std::size_t i = 0; i < heap.fired_id.size(); ++i) {
    ASSERT_EQ(heap.fired_id[i], cal.fired_id[i]) << "index " << i;
  }
  for (std::size_t i = 0; i < heap.fired_at_ns.size(); ++i) {
    ASSERT_EQ(heap.fired_at_ns[i], cal.fired_at_ns[i]) << "index " << i;
  }
}

void append_counters(const Scheduler& sched, SchedLog& log) {
  for (const std::uint64_t counter :
       {sched.events_executed(), sched.events_cancelled(),
        sched.events_scheduled(),
        static_cast<std::uint64_t>(sched.max_events_pending()),
        static_cast<std::uint64_t>(sched.pending_events())}) {
    log.fired_at_ns.push_back(static_cast<std::int64_t>(counter));
  }
}

void expect_identical(const SchedLog& heap, const SchedLog& radix) {
  ASSERT_EQ(heap.fired_id, radix.fired_id);
  ASSERT_EQ(heap.fired_at_ns, radix.fired_at_ns);
}

// Claims keys at one instant in the order deferred (1), posted (2),
// deferred (3), posted (4): key 3 is armed only when 1 fires, so it joins
// the same-`when` run behind 4 carrying an older seq.
SchedLog drive_older_seq_arm(SchedulerBackend backend) {
  Scheduler sched(backend);
  SchedLog log;
  DeferFifo fifo;
  fifo.sched = &sched;
  fifo.log = &log;
  fifo.port_id = sched.register_port(&DeferFifo::fire, &fifo);
  auto post = [&](SimTime when, int id) {
    sched.post_at(when, [&log, &sched, id] {
      log.fired_at_ns.push_back(sched.now().ns());
      log.fired_id.push_back(id);
    });
  };
  const SimTime t = SimTime::micros(250);
  post(SimTime::micros(100), 0);
  fifo.push(t, 1);
  post(t, 2);
  fifo.push(t, 3);
  post(t, 4);
  fifo.push(t + SimTime::nanos(1), 5);
  sched.run();
  append_counters(sched, log);
  return log;
}

TEST(SchedulerBackendDifferential, DeferredArmCarriesOlderSeqAtNow) {
  const SchedLog heap = drive_older_seq_arm(SchedulerBackend::kHeap);
  const SchedLog radix = drive_older_seq_arm(SchedulerBackend::kCalendar);
  EXPECT_EQ(heap.fired_id, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  expect_identical(heap, radix);
}

// Every round posts one event just past the next horizon, so run_until
// peeks it and stops; the caller then posts, defers and schedules from
// now() on, below the key the queue last took out.
SchedLog drive_pushes_after_horizon_peek(SchedulerBackend backend) {
  Scheduler sched(backend);
  SchedLog log;
  std::mt19937_64 rng(99);
  TimerPool timers(sched, log, 16);
  int next_id = 0;
  auto fire = [&log, &sched](int id) {
    return [&log, &sched, id] {
      log.fired_at_ns.push_back(sched.now().ns());
      log.fired_id.push_back(id);
    };
  };
  DeferFifo fifo;
  fifo.sched = &sched;
  fifo.log = &log;
  fifo.port_id = sched.register_port(&DeferFifo::fire, &fifo);
  SimTime fifo_tail = SimTime::zero();
  sched.post_at(SimTime::seconds(10), fire(next_id++));
  for (int round = 0; round < 300; ++round) {
    const SimTime horizon =
        sched.now() +
        SimTime::nanos(1 + static_cast<std::int64_t>(rng() % 500'000));
    sched.post_at(horizon + SimTime::nanos(1 + static_cast<std::int64_t>(
                                               rng() % 1000)),
                  fire(next_id++));
    sched.run_until(horizon);
    EXPECT_EQ(sched.now(), horizon);
    const SimTime now = sched.now();
    sched.post_at(now, fire(next_id++));
    if (now > fifo_tail) fifo_tail = now;
    fifo.push(fifo_tail, next_id++);
    timers.arm_idle(
        rng, now + SimTime::nanos(static_cast<std::int64_t>(rng() % 2000)),
        next_id++);
    if (rng() % 3 == 0) timers.cancel_armed(rng);
  }
  sched.run();
  append_counters(sched, log);
  return log;
}

TEST(SchedulerBackendDifferential, PushesAtNowAfterRunUntilPeekedPastHorizon) {
  const SchedLog heap =
      drive_pushes_after_horizon_peek(SchedulerBackend::kHeap);
  const SchedLog radix =
      drive_pushes_after_horizon_peek(SchedulerBackend::kCalendar);
  ASSERT_GT(heap.fired_id.size(), 1000u);
  EXPECT_GT(heap.fired_at_ns[heap.fired_at_ns.size() - 4], 0)
      << "some timers must be cancelled";
  expect_identical(heap, radix);
}

// A timer that re-arms itself from inside its own callback, alternating a
// later deadline with one at the current instant (behind a same-`when`
// post), the way Reno's on_rto re-arms the retransmission timer.
SchedLog drive_rearm_in_callback(SchedulerBackend backend) {
  Scheduler sched(backend);
  SchedLog log;
  struct Ctx {
    Scheduler* sched;
    SchedLog* log;
    std::uint32_t port;
    int fires;
  } ctx{&sched, &log, 0, 0};
  ctx.port = sched.register_port(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->log->fired_at_ns.push_back(c->sched->now().ns());
        c->log->fired_id.push_back(c->fires);
        if (++c->fires == 8) return;
        // The key that is running is no longer armed, so this is a fresh
        // arm, not a supersede.
        EXPECT_FALSE(c->sched->port_armed(c->port));
        const SimTime delay =
            c->fires % 2 == 0 ? SimTime::zero() : SimTime::millis(c->fires);
        c->sched->post_after(delay, [c] {
          c->log->fired_at_ns.push_back(c->sched->now().ns());
          c->log->fired_id.push_back(100 + c->fires);
        });
        c->sched->arm_port_after(delay, c->port);
      },
      &ctx);
  sched.arm_port_at(SimTime::millis(1), ctx.port);
  sched.run();
  append_counters(sched, log);
  return log;
}

TEST(SchedulerBackendDifferential, TimerRearmedFromItsOwnCallback) {
  const SchedLog heap = drive_rearm_in_callback(SchedulerBackend::kHeap);
  const SchedLog radix = drive_rearm_in_callback(SchedulerBackend::kCalendar);
  // Each re-arm fires after the post made just before it.
  EXPECT_EQ(heap.fired_id, (std::vector<int>{0, 101, 1, 102, 2, 103, 3, 104,
                                             4, 105, 5, 106, 6, 107, 7}));
  expect_identical(heap, radix);
  // executed, cancelled: every key fired, none was a tombstone.
  EXPECT_EQ(heap.fired_at_ns[heap.fired_at_ns.size() - 5], 15);
  EXPECT_EQ(heap.fired_at_ns[heap.fired_at_ns.size() - 4], 0);
}

// Timer keys that tie other events at one `when`: A is cancelled before
// the run, B is cancelled and C superseded from inside an event at the
// same instant (their keys already sit in the popping bucket), and C's
// replacement key lands behind everything queued at that instant.
SchedLog drive_cancel_tied_key(SchedulerBackend backend) {
  Scheduler sched(backend);
  SchedLog log;
  TimerPool timers(sched, log, 3);
  const std::uint32_t a = timers.timers[0].port;
  const std::uint32_t b = timers.timers[1].port;
  const std::uint32_t c = timers.timers[2].port;
  auto post = [&](SimTime when, int id, std::function<void()> extra) {
    sched.post_at(when, [&log, &sched, id, extra] {
      log.fired_at_ns.push_back(sched.now().ns());
      log.fired_id.push_back(id);
      if (extra) extra();
    });
  };
  const SimTime t = SimTime::micros(300);
  post(SimTime::micros(100), 0, nullptr);  // moves the radix floor below t
  timers.timers[0].id = 1;
  sched.arm_port_at(t, a);
  post(t, 2, [&] {
    sched.cancel_port(b);
    sched.arm_port_after(SimTime::zero(), c);  // supersedes C's first key
  });
  timers.timers[1].id = 3;
  sched.arm_port_at(t, b);
  timers.timers[2].id = 4;
  sched.arm_port_at(t, c);
  post(t, 5, nullptr);
  sched.cancel_port(a);
  sched.run();
  append_counters(sched, log);
  return log;
}

TEST(SchedulerBackendDifferential, CancelledTimerTiedWithOtherEvents) {
  const SchedLog heap = drive_cancel_tied_key(SchedulerBackend::kHeap);
  const SchedLog radix = drive_cancel_tied_key(SchedulerBackend::kCalendar);
  EXPECT_EQ(heap.fired_id, (std::vector<int>{0, 2, 5, 4}));
  expect_identical(heap, radix);
  // executed, cancelled (A, B and C's first key), scheduled, max pending,
  // pending.
  const std::vector<std::int64_t> counters(heap.fired_at_ns.end() - 5,
                                           heap.fired_at_ns.end());
  EXPECT_EQ(counters, (std::vector<std::int64_t>{4, 3, 7, 6, 0}));
}

TEST(SchedulerBackend, ParseAndName) {
  EXPECT_EQ(parse_scheduler_backend("calendar"), SchedulerBackend::kCalendar);
  EXPECT_EQ(parse_scheduler_backend("heap"), SchedulerBackend::kHeap);
  EXPECT_THROW(parse_scheduler_backend("splay"), std::invalid_argument);
  EXPECT_STREQ(scheduler_backend_name(SchedulerBackend::kCalendar),
               "calendar");
  EXPECT_STREQ(scheduler_backend_name(SchedulerBackend::kHeap), "heap");
  EXPECT_EQ(Scheduler{}.backend(), SchedulerBackend::kCalendar);
  EXPECT_EQ(Scheduler{SchedulerBackend::kHeap}.backend(),
            SchedulerBackend::kHeap);
}

TEST(SchedulerBackend, MutatedSpecsThrowThePinnedMessage) {
  // Deterministic mutation sweep of the DMP_DES grammar: truncations (down
  // to the empty string), case flips, surrounding whitespace and appended
  // bytes of each accepted spec.  Only the two exact spellings parse.
  std::vector<std::string> mutants{""};
  for (const std::string spec : {"calendar", "heap"}) {
    for (std::size_t n = 0; n < spec.size(); ++n) {
      mutants.push_back(spec.substr(0, n));
    }
    for (std::size_t i = 0; i < spec.size(); ++i) {
      std::string flipped = spec;
      flipped[i] = static_cast<char>(flipped[i] - 'a' + 'A');
      mutants.push_back(flipped);
    }
    std::string upper = spec;
    for (char& c : upper) c = static_cast<char>(c - 'a' + 'A');
    mutants.push_back(upper);
    for (const std::string ws : {" ", "\t", "\n", "\r"}) {
      mutants.push_back(ws + spec);
      mutants.push_back(spec + ws);
      mutants.push_back(ws + spec + ws);
    }
    for (const char c : {'x', '0', ':', ',', ';', '|', '\x7f', '\xff'}) {
      mutants.push_back(spec + c);
    }
    mutants.push_back(spec + spec);
  }
  for (const std::string& m : mutants) {
    try {
      parse_scheduler_backend(m);
      ADD_FAILURE() << "accepted '" << m << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "scheduler backend '" + m + "' (expected: calendar | heap)");
    }
  }
  EXPECT_EQ(mutants.size(), 69u);  // the sweep cannot silently shrink
}

}  // namespace
}  // namespace dmp
