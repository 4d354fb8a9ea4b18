// FlowId-keyed table for the per-packet lookups at shared pipeline stages
// (a link's per-flow counters, a demux's endpoint handlers).
//
// A Table-1 bottleneck carries ~55 interleaved flows, so a hinted linear
// scan pays about half the list per packet.  This is an open-addressed
// table with linear probing and Fibonacci hashing, kept at most half full:
// a lookup is one multiply and, almost always, one slot.  FlowIds are
// sparse (video flows 0..K-1, background flows 1000*(i+1)+j) and are never
// renumbered, so the table adapts to the ids rather than the other way
// round; a single-flow access link holds a 4-slot table.  Nothing is
// allocated until the first insert, and entries are never erased.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace dmp {

template <class V>
class FlowTable {
 public:
  std::size_t size() const { return size_; }

  // The value stored for `flow`, or nullptr if it was never inserted.
  V* find(FlowId flow) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(flow);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == flow) return &s.value;
    }
  }
  const V* find(FlowId flow) const {
    return const_cast<FlowTable*>(this)->find(flow);
  }

  // The value stored for `flow`, value-initialised on first use.  The
  // reference is valid until the next insertion of a new flow.
  V& operator[](FlowId flow) {
    if (V* v = find(flow)) return *v;
    if (2 * (size_ + 1) > slots_.size()) grow();
    ++size_;
    return place(flow, V{});
  }

 private:
  struct Slot {
    V value{};
    FlowId key = 0;
    bool used = false;
  };

  static constexpr std::size_t kMinSlots = 4;

  std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(flow) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Puts a flow known to be absent into its first free slot.
  V& place(FlowId flow, V&& value) {
    std::size_t i = home(flow);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i].value = std::move(value);
    slots_[i].key = flow;
    slots_[i].used = true;
    return slots_[i].value;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? kMinSlots : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.used) place(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;  // a power of two, at most half used
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots)
};

}  // namespace dmp
