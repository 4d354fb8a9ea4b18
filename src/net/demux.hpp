// Per-flow demultiplexer: routes packets leaving a shared pipeline stage to
// the endpoint (TCP sender or sink) registered for their flow id.
//
// The exit of a Table-1 bottleneck serves every video and background flow
// on the path, so the lookup is a FlowTable (O(1), open-addressed) rather
// than a scan.  Registration replaces an existing entry, preserving the old
// map semantics.
#pragma once

#include <utility>

#include "net/flow_table.hpp"
#include "net/packet.hpp"

namespace dmp {

class FlowDemux {
 public:
  void register_flow(FlowId flow, PacketHandler handler) {
    handlers_[flow] = std::move(handler);
  }

  void deliver(const Packet& p) const {
    // Packets for unregistered flows are silently discarded (e.g. traffic
    // arriving after an endpoint was torn down).
    if (const PacketHandler* handler = handlers_.find(p.flow)) (*handler)(p);
  }

  PacketHandler as_handler() {
    return [this](const Packet& p) { deliver(p); };
  }

 private:
  FlowTable<PacketHandler> handlers_;
};

}  // namespace dmp
