// Growable power-of-two ring FIFO for the simulator's per-packet queues.
//
// The hot-path FIFOs (a link's in-flight deliveries and drop-tail queue, a
// Reno sender's jittered emissions) push at the tail and pop at the head,
// and some of them never drain completely under load.  A vector with a pop
// cursor that is cleared "when it empties" then keeps every element ever
// pushed; std::deque allocates and frees a chunk every few hundred
// elements.  This ring wraps instead: storage doubles only when the FIFO is
// full, so capacity is bounded by twice the occupancy high-water mark (or
// the first allocation), elements stay inline, and no pop ever moves
// memory.  Nothing is allocated until the first push.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>

namespace dmp {

template <class T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Allocated slots: 0 before the first push, then a power of two.
  std::size_t capacity() const { return capacity_; }

  const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }
  const T& back() const {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (capacity_ - 1)];
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    buf_[(head_ + size_) & (capacity_ - 1)] = value;
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kMinCapacity = 4;

  // Full: unwrap into storage twice the size, head at slot 0.
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    std::unique_ptr<T[]> next = std::make_unique<T[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (capacity_ - 1)];
    }
    buf_ = std::move(next);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t capacity_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dmp
