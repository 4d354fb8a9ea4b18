#include "sim/scheduler.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace dmp {

SchedulerBackend parse_scheduler_backend(const std::string& spec) {
  if (spec == "calendar") return SchedulerBackend::kCalendar;
  if (spec == "heap") return SchedulerBackend::kHeap;
  throw std::invalid_argument{"scheduler backend '" + spec +
                              "' (expected: calendar | heap)"};
}

const char* scheduler_backend_name(SchedulerBackend backend) {
  return backend == SchedulerBackend::kCalendar ? "calendar" : "heap";
}

void Scheduler::post_at(SimTime when, EventFn fn, EventCategory cat) {
  const bool reuse = !free_fns_.empty();
  const std::uint32_t fn_index =
      reuse ? free_fns_.back() : static_cast<std::uint32_t>(fns_.size());
  push_new(when, fn_index, "post_at");  // throws before the slab changes
  if (reuse) {
    free_fns_.pop_back();
    fns_[fn_index] = std::move(fn);
    fn_cats_[fn_index] = static_cast<std::uint8_t>(cat);
  } else {
    fns_.push_back(std::move(fn));
    fn_cats_.push_back(static_cast<std::uint8_t>(cat));
  }
}

void Scheduler::post_after(SimTime delay, EventFn fn, EventCategory cat) {
  post_at(now_ + delay, std::move(fn), cat);
}

std::uint32_t Scheduler::register_port(PortFn fn, void* ctx,
                                       EventCategory cat) {
  ports_.push_back(Port{fn, ctx, kUnarmed, static_cast<std::uint8_t>(cat)});
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

namespace {

// Runs one event's callback, charging it to `cat` when a profile is
// attached (and its wall time when `timed`).
template <typename Fn>
void run_event(SchedProfile* profile, bool timed, std::uint8_t cat, Fn&& fn) {
  if (profile == nullptr) {
    fn();
    return;
  }
  auto& stats = profile->by_category[cat < kNumEventCategories ? cat : 0];
  ++stats.executed;
  if (!timed) {
    fn();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

bool Scheduler::step(SimTime horizon) {
  while (!q_empty()) {
    if (q_min().when > horizon) return false;
    const Entry top = q_pop();
    if (top.fn_index & kTimerBit) {
      // Only the port's armed key is live; a superseded or cancelled one
      // is a tombstone.  Disarming first lets the callback re-arm.
      std::uint64_t& armed = ports_[top.fn_index & kPortMask].armed;
      if (armed != top.seq) {
        ++cancelled_;
        continue;
      }
      armed = kUnarmed;
    }
    now_ = top.when;
    ++executed_;
    if (top.fn_index & kPortBit) {
      const Port port = ports_[top.fn_index & kPortMask];
      run_event(profile_, time_events_, port.cat,
                [&port] { port.fn(port.ctx); });
    } else {
      EventFn fn = std::move(fns_[top.fn_index]);
      free_fns_.push_back(top.fn_index);
      run_event(profile_, time_events_, fn_cats_[top.fn_index], fn);
    }
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(SimTime horizon) {
  std::uint64_t executed = 0;
  while (step(horizon)) ++executed;
  if (horizon != SimTime::max() && now_ < horizon) now_ = horizon;
  return executed;
}

std::uint64_t Scheduler::run() { return run_until(SimTime::max()); }

}  // namespace dmp
