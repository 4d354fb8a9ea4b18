// DropTail behind the QueueDiscipline interface: the legacy Link::send
// admit/drop decision, verbatim.  Tail-drops when the buffer is full,
// otherwise FIFO; no controller state, no RNG — the default configuration
// stays byte-identical to the pre-interface link (golden-pinned).  The
// queue is a RingFifo: a standing bottleneck queue cycles through the same
// few slots instead of allocating deque chunks as it moves.
#pragma once

#include "net/qdisc/queue_discipline.hpp"
#include "util/ring_fifo.hpp"

namespace dmp {

class DropTailQdisc final : public QueueDiscipline {
 public:
  explicit DropTailQdisc(std::size_t buffer_packets)
      : buffer_packets_(buffer_packets) {}

  const char* name() const override { return "droptail"; }

  bool enqueue(const Packet& p, SimTime) override {
    if (buffer_packets_ != 0 && queue_.size() >= buffer_packets_) {
      drop(p, QdiscDropReason::kOverlimit);
      return false;
    }
    queue_.push_back(p);
    return true;
  }

  bool dequeue(Packet* out, SimTime) override {
    if (queue_.empty()) return false;
    *out = queue_.front();
    queue_.pop_front();
    return true;
  }

  std::size_t len() const override { return queue_.size(); }

 private:
  std::size_t buffer_packets_;
  RingFifo<Packet> queue_;
};

}  // namespace dmp
