// DES self-profiling: per-category attribution of executed events.
//
// Every event pushed into the Scheduler carries an `EventCategory` byte
// (defaulted to kOther, so existing call sites compile unchanged).  When a
// `SchedProfile` is attached the run loop charges each executed event to
// its category; with `time_events` also set it brackets the callback with
// steady_clock reads and accumulates wall nanoseconds per category.  Counts
// are deterministic (safe for golden artifacts); wall times are not —
// report them, never pin them.
//
// The category byte lives in the port (or, for a posted callable, in a
// slab parallel to the scheduler's callable slab), so queue entries stay
// 24 bytes and the untimed fast path costs one predictable branch per step.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dmp {

enum class EventCategory : std::uint8_t {
  kOther = 0,     // uncategorised (default for legacy call sites)
  kLinkTx,        // link serialization completions (dequeue → wire)
  kLinkDelivery,  // propagation-delay arrivals at the far end
  kTcpSend,       // sender segment transmissions into the link
  kTcpTimer,      // RTO and delayed-ACK timers
  kSource,        // application CBR/file generation ticks
  kProbe,         // observability sampling ticks
  kFault,         // fault-injector transitions
  kCount          // sentinel — keep last
};

inline constexpr std::size_t kNumEventCategories =
    static_cast<std::size_t>(EventCategory::kCount);

constexpr std::string_view event_category_name(EventCategory c) {
  switch (c) {
    case EventCategory::kOther: return "other";
    case EventCategory::kLinkTx: return "link_tx";
    case EventCategory::kLinkDelivery: return "link_delivery";
    case EventCategory::kTcpSend: return "tcp_send";
    case EventCategory::kTcpTimer: return "tcp_timer";
    case EventCategory::kSource: return "source";
    case EventCategory::kProbe: return "probe";
    case EventCategory::kFault: return "fault";
    case EventCategory::kCount: break;
  }
  return "invalid";
}

// Accumulated per-category work.  Plain data: the scheduler writes it, the
// session report reads it, nothing owns it.
struct SchedProfile {
  struct CategoryStats {
    std::uint64_t executed = 0;
    std::uint64_t wall_ns = 0;  // 0 unless wall timing was enabled
  };

  std::array<CategoryStats, kNumEventCategories> by_category{};

  std::uint64_t total_executed() const {
    std::uint64_t n = 0;
    for (const auto& c : by_category) n += c.executed;
    return n;
  }
  std::uint64_t total_wall_ns() const {
    std::uint64_t ns = 0;
    for (const auto& c : by_category) ns += c.wall_ns;
    return ns;
  }
  const CategoryStats& operator[](EventCategory c) const {
    return by_category[static_cast<std::size_t>(c)];
  }
};

}  // namespace dmp
