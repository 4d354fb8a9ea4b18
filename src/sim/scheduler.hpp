// Discrete-event scheduler.
//
// Entries are (time, sequence, callback) triples.  Entries scheduled at the
// same instant fire in scheduling order (FIFO tie-break), which keeps runs
// deterministic.  Cancellation is lazy: `EventHandle::cancel()` marks the
// entry and the run loop skips it when popped — O(1) cancel, no queue
// surgery, which suits TCP timers that are rescheduled on every ACK.
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
// Hot-path cost model: callables live in a pooled slab of EventFn slots
// (inline storage, no per-event heap allocation) and queue entries carry
// only {time, seq, slot indexes} — 24 trivially-movable bytes — so queue
// operations never touch the callable.  The common case (a link delivery,
// a CBR tick) never cancels, so `post_at` / `post_after` skip cancellation
// bookkeeping entirely.  `schedule_at` / `schedule_after` return a
// cancellable EventHandle backed by a pooled generation-stamped slot: slots
// are recycled through free lists, so steady-state timer churn allocates
// nothing.  Handles stay safe after the scheduler dies (the slot pool is
// shared) — they simply report `pending() == false`.
//
// Ports + deferred events (the batched-dequeue fast path): an object whose
// events always run the same member function registers a raw function
// pointer once (`register_port`) and schedules against the port id — no
// EventFn construction, no slab traffic, no type erasure on pop.  An object
// that owns a FIFO of future events (a link's in-flight deliveries, a
// sender's jittered emissions) keeps the FIFO itself and materializes only
// its head in the queue: `defer_at` allocates the event's (when, seq) key —
// at the exact moment the old code would have pushed it, so sequence
// numbers and FIFO tie-breaks are unchanged — and `arm_deferred` inserts a
// stored key when it becomes the FIFO's head.  Deferred events are counted
// in `pending_events()` / `max_events_pending()` as if they were queued, so
// every externally observable counter matches the one-entry-per-event
// implementation bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/profiler.hpp"
#include "sim/radix_heap.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class Scheduler;

// Priority-queue implementation behind the scheduler (see header comment).
enum class SchedulerBackend : std::uint8_t { kHeap, kCalendar };

// Strict spec parse for the DMP_DES / SessionConfig::des knob: "heap" or
// "calendar".  Throws std::invalid_argument on anything else.
SchedulerBackend parse_scheduler_backend(const std::string& spec);
const char* scheduler_backend_name(SchedulerBackend backend);

namespace detail {

// Generation-stamped cancellation slots.  A slot matches a handle only
// while the generations agree; firing or skipping an event bumps the
// generation and recycles the slot.
struct SlotPool {
  struct Slot {
    std::uint32_t gen = 0;
    bool cancelled = false;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;

  std::uint32_t acquire() {
    if (!free_list.empty()) {
      const std::uint32_t idx = free_list.back();
      free_list.pop_back();
      return idx;
    }
    slots.push_back(Slot{});
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t idx) {
    ++slots[idx].gen;
    slots[idx].cancelled = false;
    free_list.push_back(idx);
  }

  bool live(std::uint32_t idx, std::uint32_t gen) const {
    return slots[idx].gen == gen;
  }
};

}  // namespace detail

// Shared cancellation token for a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is scheduled and not cancelled / fired.
  bool pending() const {
    return pool_ && pool_->live(slot_, gen_) && !pool_->slots[slot_].cancelled;
  }
  void cancel() {
    if (pool_ && pool_->live(slot_, gen_)) pool_->slots[slot_].cancelled = true;
  }

 private:
  friend class Scheduler;
  EventHandle(std::shared_ptr<detail::SlotPool> pool, std::uint32_t slot,
              std::uint32_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::SlotPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerBackend backend = SchedulerBackend::kCalendar)
      : backend_(backend) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }
  SchedulerBackend backend() const { return backend_; }

  // Schedule `fn` at absolute time `when` (must be >= now()).  The
  // category tags the event for the optional profiler; kOther is free to
  // leave in place at call sites nobody profiles.
  EventHandle schedule_at(SimTime when, EventFn fn,
                          EventCategory cat = EventCategory::kOther);
  // Schedule `fn` after a relative delay (must be >= 0).
  EventHandle schedule_after(SimTime delay, EventFn fn,
                             EventCategory cat = EventCategory::kOther);

  // Fire-and-forget variants for events that are never cancelled (packet
  // deliveries, generator ticks): no slot, no handle, no shared state.
  void post_at(SimTime when, EventFn fn,
               EventCategory cat = EventCategory::kOther);
  void post_after(SimTime delay, EventFn fn,
                  EventCategory cat = EventCategory::kOther);

  // --- ports: devirtualized fire-and-forget dispatch ---
  // A port binds (function pointer, context, category) once; port events
  // skip the EventFn slab entirely.  Ports are never cancelled and never
  // unregistered; the context must outlive every scheduled port event.
  using PortFn = void (*)(void* ctx);
  std::uint32_t register_port(PortFn fn, void* ctx,
                              EventCategory cat = EventCategory::kOther);
  // Defined inline below: these run once per simulated packet hop.
  void post_port_at(SimTime when, std::uint32_t port);
  void post_port_after(SimTime delay, std::uint32_t port);

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
  std::size_t events_pending() const { return pending_events(); }

  // Lifetime work counters.  Lazily-cancelled entries popped off the queue
  // are counted separately from executed events, so scheduler metrics
  // distinguish real work from cancel skips (TCP timers are rescheduled on
  // every ACK, so skips can rival executions).
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_cancelled() const { return cancelled_; }
  std::uint64_t events_scheduled() const { return next_seq_; }
  // High-water mark of pending events (queued + deferred).
  std::size_t max_events_pending() const { return max_pending_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // fn_index values with this bit set index ports_, not the EventFn slab.
  static constexpr std::uint32_t kPortBit = 0x80000000u;

  // Queue entries are deliberately tiny and trivially movable: the callable
  // sits in the fns_ slab (or a port), referenced by index, so queue
  // operations shuffle 24 bytes instead of a type-erased function object.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t fn_index;  // into fns_, or ports_ when kPortBit is set
    std::uint32_t slot;      // kNoSlot for fire-and-forget posts
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
    std::uint8_t cat;
  };

  void push(SimTime when, EventFn fn, std::uint32_t slot, EventCategory cat);
  void push_entry(const Entry& e);
  void dispatch(const Entry& e);

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
  std::shared_ptr<detail::SlotPool> pool_ =
      std::make_shared<detail::SlotPool>();
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

inline void Scheduler::post_port_at(SimTime when, std::uint32_t port) {
  if (when < now_) {
    throw std::invalid_argument{"post_port_at: time in the past"};
  }
  push_entry(Entry{when, next_seq_++, port | kPortBit, kNoSlot});
  if (pending_events() > max_pending_) max_pending_ = pending_events();
}

inline void Scheduler::post_port_after(SimTime delay, std::uint32_t port) {
  post_port_at(now_ + delay, port);
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
  push_entry(Entry{d.when, d.seq, port | kPortBit, kNoSlot});
}

}  // namespace dmp
