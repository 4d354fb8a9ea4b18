// Monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) for the
// DES scheduler hot path.
//
// `last_` is the `when` of the latest minimum taken out (peeked or popped).
// Of the 65 buckets, bucket 0 holds the entries whose `when` equals last_,
// and bucket i+1 (i = 0..63) those whose highest bit differing from last_
// is bit i.  Every pending `when` is >= last_, so every key in bucket i
// lies below every key in bucket i+1.  A pop that finds bucket 0 empty
// refills it from the lowest non-empty bucket j (a ctz on the occupancy
// mask): j's smallest `when` becomes last_, and each of j's entries moves
// to a bucket below j.  An entry thus moves at most 64 times; in a DES,
// whose keys sit a few timer periods ahead of the clock, it moves 2-3
// times.  There is no tuning state.
//
// Ordering contract: pops come out in EXACTLY the order a binary heap over
// the same (when, seq) keys would produce them (tests/sim/
// radix_heap_test.cpp pins this).  Equal `when`s always share a bucket,
// and pops come only from bucket 0, which is kept in ascending seq: a
// direct push appends (seq is a global counter, so it is nearly always the
// largest) or sorted-inserts a deferred key carrying an older seq; a
// refill sorts the bucket when the moved entries arrive out of seq order.
//
// A push below last_ happens only after Scheduler::run_until peeks an event
// beyond its horizon and the caller then schedules from now() on (inside an
// event, now() is the last popped key).  The new key becomes last_; only
// the entries in buckets below the highest bit where it differs from the
// old last_ move, all into that bit's bucket.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmp {

// Entry must expose `when` (SimTime, non-negative) and `seq` (uint64);
// (when, seq) pairs are unique per queue (seq is a global schedule counter).
template <typename Entry>
class RadixHeap {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const Entry& e) {
    const std::uint64_t k = key_ns(e);
    if (k < last_) rebase(k);
    ++size_;
    if (k != last_) {
      place(e, k);
    } else if (tied_.empty() || tied_.back().seq < e.seq) {
      tied_.push_back(e);
    } else {
      // Sorted insert into the live suffix (tied_[0, head_) is popped).
      tied_.insert(std::upper_bound(tied_.begin() +
                                        static_cast<std::ptrdiff_t>(head_),
                                    tied_.end(), e, SeqLess{}),
                   e);
    }
  }

  // Smallest (when, seq) entry; undefined when empty.
  const Entry& min() {
    if (tied_.empty()) refill();
    return tied_[head_];
  }

  Entry pop_min() {
    if (tied_.empty()) refill();
    const Entry e = tied_[head_++];
    if (head_ == tied_.size()) {
      tied_.clear();
      head_ = 0;
    }
    --size_;
    return e;
  }

 private:
  struct SeqLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.seq < b.seq;
    }
  };

  static std::uint64_t key_ns(const Entry& e) {
    return static_cast<std::uint64_t>(e.when.ns());
  }

  // Files an entry whose key differs from last_ under its highest
  // differing bit.
  void place(const Entry& e, std::uint64_t k) {
    const int bit = 63 - std::countl_zero(k ^ last_);
    by_bit_[static_cast<std::size_t>(bit)].push_back(e);
    mask_ |= std::uint64_t{1} << bit;
  }

  // Bucket 0 is empty: move the lowest non-empty bucket down around its
  // smallest key.
  void refill() {
    std::vector<Entry>& src =
        by_bit_[static_cast<std::size_t>(std::countr_zero(mask_))];
    mask_ &= mask_ - 1;
    std::uint64_t m = key_ns(src.front());
    for (const Entry& e : src) m = std::min(m, key_ns(e));
    last_ = m;
    for (const Entry& e : src) {
      const std::uint64_t k = key_ns(e);
      if (k == m) {
        tied_.push_back(e);
      } else {
        place(e, k);
      }
    }
    src.clear();
    if (!std::is_sorted(tied_.begin(), tied_.end(), SeqLess{})) {
      std::sort(tied_.begin(), tied_.end(), SeqLess{});
    }
  }

  // A key below last_ (every pending key is above it).  Let d be the
  // highest bit where k and last_ differ; last_ has it set, so bucket d+1
  // is empty.  Buckets above d+1 keep their entries, and bucket 0 and the
  // buckets below d+1 merge into bucket d+1: their keys agree with last_
  // above bit d, so they first differ from k at bit d.
  void rebase(std::uint64_t k) {
    const int d = 63 - std::countl_zero(k ^ last_);
    const std::uint64_t below = (std::uint64_t{1} << d) - 1;
    std::vector<Entry>& dst = by_bit_[static_cast<std::size_t>(d)];
    dst.insert(dst.end(),
               tied_.begin() + static_cast<std::ptrdiff_t>(head_),
               tied_.end());
    tied_.clear();
    head_ = 0;
    for (std::uint64_t bits = mask_ & below; bits != 0; bits &= bits - 1) {
      std::vector<Entry>& bucket =
          by_bit_[static_cast<std::size_t>(std::countr_zero(bits))];
      dst.insert(dst.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    mask_ &= ~below;
    if (!dst.empty()) mask_ |= std::uint64_t{1} << d;
    last_ = k;
  }

  std::vector<Entry> tied_;  // bucket 0, ascending seq; live from head_
  std::size_t head_ = 0;
  std::array<std::vector<Entry>, 64> by_bit_;  // buckets 1..64
  std::uint64_t mask_ = 0;  // bit i set iff by_bit_[i] is non-empty
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dmp
