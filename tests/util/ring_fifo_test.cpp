#include "util/ring_fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "util/rng.hpp"

namespace dmp {
namespace {

TEST(RingFifo, StartsEmptyWithoutStorage) {
  RingFifo<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(RingFifo, WrapsAroundWithoutGrowing) {
  RingFifo<int> ring;
  for (int i = 0; i < 3; ++i) ring.push_back(i);
  const std::size_t cap = ring.capacity();
  // Keep three in the ring while the head walks past the end several times.
  for (int i = 3; i < 100; ++i) {
    EXPECT_EQ(ring.front(), i - 3);
    ring.pop_front();
    ring.push_back(i);
    EXPECT_EQ(ring.size(), 3u);
  }
  EXPECT_EQ(ring.capacity(), cap);
  for (int i = 97; i < 100; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingFifo, GrowthWhileWrappedKeepsFifoOrder) {
  RingFifo<int> ring;
  // Offset the head so the live range wraps, then overfill: growth must
  // unwrap the elements in FIFO order.
  for (int i = 0; i < 3; ++i) ring.push_back(-1);
  for (int i = 0; i < 3; ++i) ring.pop_front();
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 6; ++round) {
    const int burst = 5 << round;
    for (int i = 0; i < burst; ++i) ring.push_back(next_in++);
    for (int i = 0; i < burst / 2; ++i) {
      ASSERT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
  }
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingFifo, BackIsNewestAfterWrap) {
  RingFifo<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ASSERT_EQ(ring.capacity(), 4u);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // lands in slot 1: the live range wraps
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.front(), 2);
  EXPECT_EQ(ring.back(), 5);
  ring.push_back(6);  // full: grows, and back() follows the unwrapped tail
  EXPECT_EQ(ring.back(), 6);
  EXPECT_EQ(ring.front(), 2);
}

TEST(RingFifo, CapacityBoundedByHighWaterOverMillionCycles) {
  RingFifo<std::int64_t> ring;
  std::deque<std::int64_t> model;
  Rng rng(7);
  std::size_t high_water = 0;
  std::int64_t next = 0;
  for (int cycle = 0; cycle < 1'000'000; ++cycle) {
    // A random walk of occupancy in [0, 100]: pushes and pops interleave
    // so the head wraps at every capacity the ring passes through.
    const bool push = model.empty() ||
                      (model.size() < 100 && rng.uniform_int(2) == 0);
    if (push) {
      ring.push_back(next);
      model.push_back(next++);
    } else {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    if (model.size() > high_water) high_water = model.size();
  }
  EXPECT_GT(next, 400'000);
  EXPECT_LE(ring.capacity(), 2 * high_water);
  EXPECT_GE(ring.capacity(), high_water);
}

}  // namespace
}  // namespace dmp
