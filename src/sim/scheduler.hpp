// Discrete-event scheduler.
//
// Entries are (time, sequence, callback) triples.  Entries scheduled at the
// same instant fire in scheduling order (FIFO tie-break), which keeps runs
// deterministic.
//
// Two priority-queue backends sit behind one knob (docs/DES_ENGINE.md):
//
//   kHeap     — binary heap (std::push_heap/pop_heap), the original
//               implementation, kept as the differential-testing reference.
//   kCalendar — the default bucketed queue: a monotone radix heap
//               (src/sim/radix_heap.hpp).  The name is the DMP_DES spec
//               `calendar`, kept from the calendar queue it replaced.  Pop
//               order is bit-identical to the heap's — both sort on exactly
//               (when, seq) — so every golden artifact is
//               backend-independent (CI diffs the two).
//
// Hot-path cost model: queue entries carry only {time, seq, callable
// index} — 24 trivially-movable bytes — so queue operations never touch
// the callable.  `post_at` / `post_after` keep a captured callable in a
// pooled slab of EventFn slots (inline storage, no per-event heap
// allocation); nothing posted this way can be cancelled.
//
// Ports (the devirtualized path): an object whose events always run the
// same member function registers a raw function pointer once
// (`register_port`) and schedules against the port id — no EventFn
// construction, no slab traffic, no type erasure on pop.
//
// Timers are ports too, and the scheduler's only cancellation mechanism.
// A port remembers the seq of its one armed key: `arm_port_at` pushes a
// fresh key and makes it the armed one, superseding any earlier key, and
// `cancel_port` disarms it.  Cancellation is lazy — a superseded or
// cancelled key stays queued (and counted in `pending_events()`) until its
// deadline, and popping it is counted in `events_cancelled()` instead of
// running anything.  The armed seq is cleared before the callback runs,
// so a callback may re-arm its own timer.  This suits TCP timers that are
// re-armed on every ACK: no allocation and no shared state per arm.
//
// Deferred events: an object that owns a FIFO of future events (a link's
// in-flight deliveries, a sender's jittered emissions) keeps the FIFO
// itself and materializes only its head in the queue: `defer_at` allocates
// the event's (when, seq) key — at the exact moment the old code would
// have pushed it, so sequence numbers and FIFO tie-breaks are unchanged —
// and `arm_deferred` inserts a stored key when it becomes the FIFO's head.
// Deferred events are counted in `pending_events()` / `max_events_pending()`
// as if they were queued, so every externally observable counter matches
// the one-entry-per-event implementation bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/profiler.hpp"
#include "sim/radix_heap.hpp"
#include "util/sim_time.hpp"

namespace dmp {

// Priority-queue implementation behind the scheduler (see header comment).
enum class SchedulerBackend : std::uint8_t { kHeap, kCalendar };

// Strict spec parse for the DMP_DES / SessionConfig::des knob: "heap" or
// "calendar".  Throws std::invalid_argument on anything else.
SchedulerBackend parse_scheduler_backend(const std::string& spec);
const char* scheduler_backend_name(SchedulerBackend backend);

class Scheduler {
 public:
  explicit Scheduler(SchedulerBackend backend = SchedulerBackend::kCalendar)
      : backend_(backend) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }
  SchedulerBackend backend() const { return backend_; }

  // Schedule `fn` at absolute time `when` (must be >= now()); events
  // posted this way are never cancelled.  The category tags the event for
  // the optional profiler; kOther is free to leave in place at call sites
  // nobody profiles.
  void post_at(SimTime when, EventFn fn,
               EventCategory cat = EventCategory::kOther);
  // Post `fn` after a relative delay (must be >= 0).
  void post_after(SimTime delay, EventFn fn,
                  EventCategory cat = EventCategory::kOther);

  // --- ports: devirtualized dispatch ---
  // A port binds (function pointer, context, category) once; port events
  // skip the EventFn slab entirely.  Ports are never unregistered; the
  // context must outlive every scheduled port event and every armed key.
  using PortFn = void (*)(void* ctx);
  std::uint32_t register_port(PortFn fn, void* ctx,
                              EventCategory cat = EventCategory::kOther);
  // Defined inline below: these run once per simulated packet hop.
  void post_port_at(SimTime when, std::uint32_t port);
  void post_port_after(SimTime delay, std::uint32_t port);

  // --- timers: a port with at most one armed key ---
  // `arm_port_at` pushes a new key for `port` and makes it the armed one;
  // a key armed earlier is superseded.  A popped key that is not its
  // port's armed key is skipped and counted in events_cancelled().
  void arm_port_at(SimTime when, std::uint32_t port);
  void arm_port_after(SimTime delay, std::uint32_t port);
  void cancel_port(std::uint32_t port) { ports_[port].armed = kUnarmed; }
  // True from an arm until its key fires (cleared before the callback
  // runs) or the timer is cancelled.
  bool port_armed(std::uint32_t port) const {
    return ports_[port].armed != kUnarmed;
  }

  // --- deferred events: caller-owned FIFOs with one armed head ---
  // `defer_at` claims the event's (when, seq) key NOW — bumping the
  // scheduled/pending accounting exactly as a push would — but inserts
  // nothing; the caller stores the key in its FIFO.  `arm_deferred` inserts
  // a previously claimed key (a FIFO head) for port dispatch.  Every
  // claimed key must be armed exactly once; keys armed out of claim order
  // must still be armed in (when, seq) order relative to their FIFO.
  struct Deferred {
    SimTime when;
    std::uint64_t seq;
  };
  Deferred defer_at(SimTime when);
  Deferred defer_after(SimTime delay);
  void arm_deferred(const Deferred& d, std::uint32_t port);

  // Attach (or detach, with nullptr) a per-category execution profile.
  // `time_events` additionally brackets every callback with steady_clock
  // reads — roughly 40 ns/event, so it is a separate opt-in (DMP_PROFILE)
  // rather than part of the cheap telemetry path.
  void set_profiler(SchedProfile* profile, bool time_events = false) {
    profile_ = profile;
    time_events_ = time_events && profile != nullptr;
  }

  // Run until the event queue drains or the clock passes `horizon`.
  // Returns the number of events executed.
  std::uint64_t run_until(SimTime horizon);
  // Run until the queue drains.
  std::uint64_t run();

  // Execute at most one event; false when the queue is empty or the next
  // event lies beyond `horizon` (clock is then left unchanged).
  bool step(SimTime horizon = SimTime::max());

  // Pending = queued entries + deferred keys parked in caller FIFOs, i.e.
  // every event that would have been queued before deferral existed.
  std::size_t pending_events() const { return q_size() + deferred_pending_; }

  // Lifetime work counters.  Cancelled or superseded timer keys popped off
  // the queue are counted separately from executed events, so scheduler
  // metrics distinguish real work from cancel skips (TCP timers are
  // re-armed on every ACK, so skips can rival executions).
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_cancelled() const { return cancelled_; }
  std::uint64_t events_scheduled() const { return next_seq_; }
  // High-water mark of pending events (queued + deferred).
  std::size_t max_events_pending() const { return max_pending_; }

 private:
  // fn_index values with kPortBit set index ports_, not the EventFn slab;
  // kTimerBit additionally marks a timer key, live only while it is its
  // port's armed key.
  static constexpr std::uint32_t kPortBit = 0x80000000u;
  static constexpr std::uint32_t kTimerBit = 0x40000000u;
  static constexpr std::uint32_t kPortMask = ~(kPortBit | kTimerBit);
  static constexpr std::uint64_t kUnarmed = ~std::uint64_t{0};

  // Queue entries are deliberately tiny and trivially movable: the callable
  // sits in the fns_ slab (or a port), referenced by index, so queue
  // operations shuffle 24 bytes instead of a type-erased function object.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t fn_index;  // into fns_, or ports_ when kPortBit is set
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Port {
    PortFn fn;
    void* ctx;
    std::uint64_t armed;  // seq of the live timer key, or kUnarmed
    std::uint8_t cat;
  };

  // Claims the next seq for a new entry and queues it.
  void push_new(SimTime when, std::uint32_t fn_index, const char* what);
  void push_entry(const Entry& e);

  // Backend dispatch.  One predictable branch per operation; both backends
  // order on exactly (when, seq).
  bool q_empty() const { return q_size() == 0; }
  std::size_t q_size() const {
    return backend_ == SchedulerBackend::kCalendar ? radix_.size()
                                                   : heap_.size();
  }
  const Entry& q_min() {
    return backend_ == SchedulerBackend::kCalendar ? radix_.min()
                                                   : heap_.front();
  }
  Entry q_pop();

  SchedulerBackend backend_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t max_pending_ = 0;
  std::size_t deferred_pending_ = 0;  // claimed keys parked in caller FIFOs
  SchedProfile* profile_ = nullptr;  // not owned; null = no attribution
  bool time_events_ = false;
  std::vector<EventFn> fns_;               // slab of pending callables
  std::vector<std::uint8_t> fn_cats_;      // category byte, parallel to fns_
  std::vector<std::uint32_t> free_fns_;    // recycled slab indexes
  std::vector<Port> ports_;
  std::vector<Entry> heap_;                // kHeap backend (std::*_heap)
  RadixHeap<Entry> radix_;                 // kCalendar backend
};

// --- inline hot paths (one call per simulated packet hop) ---

inline void Scheduler::push_entry(const Entry& e) {
  if (backend_ == SchedulerBackend::kCalendar) {
    radix_.push(e);
  } else {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
}

inline Scheduler::Entry Scheduler::q_pop() {
  if (backend_ == SchedulerBackend::kCalendar) return radix_.pop_min();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

inline void Scheduler::push_new(SimTime when, std::uint32_t fn_index,
                                const char* what) {
  if (when < now_) {
    throw std::invalid_argument{std::string{what} + ": time in the past"};
  }
  push_entry(Entry{when, next_seq_++, fn_index});
  if (pending_events() > max_pending_) max_pending_ = pending_events();
}

inline void Scheduler::post_port_at(SimTime when, std::uint32_t port) {
  push_new(when, port | kPortBit, "post_port_at");
}

inline void Scheduler::post_port_after(SimTime delay, std::uint32_t port) {
  post_port_at(now_ + delay, port);
}

inline void Scheduler::arm_port_at(SimTime when, std::uint32_t port) {
  push_new(when, port | kPortBit | kTimerBit, "arm_port_at");
  ports_[port].armed = next_seq_ - 1;
}

inline void Scheduler::arm_port_after(SimTime delay, std::uint32_t port) {
  arm_port_at(now_ + delay, port);
}

inline Scheduler::Deferred Scheduler::defer_at(SimTime when) {
  if (when < now_) throw std::invalid_argument{"defer_at: time in the past"};
  // The key is claimed at the exact point the one-entry-per-event code
  // would have pushed, so seq assignment (and with it every same-time
  // tie-break downstream) is unchanged.  The event is logically pending
  // from this moment: counters move now, the queue entry comes later.
  const Deferred d{when, next_seq_++};
  ++deferred_pending_;
  if (pending_events() > max_pending_) max_pending_ = pending_events();
  return d;
}

inline Scheduler::Deferred Scheduler::defer_after(SimTime delay) {
  return defer_at(now_ + delay);
}

inline void Scheduler::arm_deferred(const Deferred& d, std::uint32_t port) {
  // Moves one event from a caller FIFO into the queue: total pending is
  // unchanged, so no high-water update.
  --deferred_pending_;
  push_entry(Entry{d.when, d.seq, port | kPortBit});
}

}  // namespace dmp
