// Differential tests for the O(1) per-flow lookups (FlowTable, FlowDemux,
// Link per-flow counters) against the linear-scan implementations they
// replaced, kept here verbatim as the reference.  FlowId sets follow the
// session's real shapes: video flows 0..K-1 plus background flows
// 1000*(i+1)+j for path i.
#include "net/flow_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/demux.hpp"
#include "net/link.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

// --- reference implementations (the pre-FlowTable linear scans) ---

class LinearScanDemux {
 public:
  void register_flow(FlowId flow, PacketHandler handler) {
    for (auto& entry : handlers_) {
      if (entry.first == flow) {
        entry.second = std::move(handler);
        return;
      }
    }
    handlers_.emplace_back(flow, std::move(handler));
  }

  void deliver(const Packet& p) const {
    for (const auto& entry : handlers_) {
      if (entry.first == p.flow) {
        entry.second(p);
        return;
      }
    }
  }

 private:
  std::vector<std::pair<FlowId, PacketHandler>> handlers_;
};

class LinearScanCounters {
 public:
  LinkFlowCounters& slot(FlowId flow) {
    if (hint_ < per_flow_.size() && per_flow_[hint_].first == flow) {
      return per_flow_[hint_].second;
    }
    for (std::size_t i = 0; i < per_flow_.size(); ++i) {
      if (per_flow_[i].first == flow) {
        hint_ = i;
        return per_flow_[i].second;
      }
    }
    hint_ = per_flow_.size();
    per_flow_.emplace_back(flow, LinkFlowCounters{});
    return per_flow_.back().second;
  }

  LinkFlowCounters counters(FlowId flow) const {
    for (const auto& entry : per_flow_) {
      if (entry.first == flow) return entry.second;
    }
    return LinkFlowCounters{};
  }

 private:
  std::vector<std::pair<FlowId, LinkFlowCounters>> per_flow_;
  std::size_t hint_ = 0;
};

// A session-shaped FlowId set: K video flows plus a random subset of each
// path's background ids.
std::vector<FlowId> session_flow_ids(Rng& rng) {
  std::vector<FlowId> ids;
  const std::uint64_t video = 1 + rng.uniform_int(4);
  for (std::uint64_t k = 0; k < video; ++k) ids.push_back(static_cast<FlowId>(k));
  const std::uint64_t paths = 1 + rng.uniform_int(4);
  for (std::uint64_t i = 0; i < paths; ++i) {
    const std::uint64_t bg = rng.uniform_int(60);
    for (std::uint64_t j = 0; j < bg; ++j) {
      if (rng.uniform_int(4) != 0) {
        ids.push_back(static_cast<FlowId>(1000 * (i + 1) + j));
      }
    }
  }
  return ids;
}

FlowId pick(Rng& rng, const std::vector<FlowId>& ids) {
  return ids[rng.uniform_int(ids.size())];
}

// Flows the session never registers: neighbouring and far-away ids.
FlowId stranger(Rng& rng) {
  switch (rng.uniform_int(3)) {
    case 0: return static_cast<FlowId>(4 + rng.uniform_int(996));
    case 1: return static_cast<FlowId>(5000 + rng.uniform_int(100000));
    default: return static_cast<FlowId>(0xFFFF0000u + rng.uniform_int(0xFFFF));
  }
}

TEST(FlowTable, RandomizedDifferentialAgainstOrderedMap) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const std::vector<FlowId> ids = session_flow_ids(rng);
    FlowTable<std::uint64_t> table;
    std::map<FlowId, std::uint64_t> model;
    for (int op = 0; op < 2000; ++op) {
      const FlowId flow = rng.uniform_int(5) == 0 ? stranger(rng)
                                                  : pick(rng, ids);
      if (rng.uniform_int(2) == 0) {
        table[flow] += op;
        model[flow] += static_cast<std::uint64_t>(op);
      }
      const std::uint64_t* got = table.find(flow);
      const auto want = model.find(flow);
      ASSERT_EQ(got != nullptr, want != model.end()) << "seed " << seed;
      if (got) {
        ASSERT_EQ(*got, want->second) << "seed " << seed;
      }
    }
    EXPECT_EQ(table.size(), model.size());
    for (const auto& [flow, value] : model) {
      ASSERT_NE(table.find(flow), nullptr);
      EXPECT_EQ(*table.find(flow), value);
    }
  }
}

TEST(FlowTable, EmptyTableFindsNothing) {
  const FlowTable<int> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(1000), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowDemux, RandomizedDifferentialAgainstLinearScan) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::vector<FlowId> ids = session_flow_ids(rng);
    FlowDemux demux;
    LinearScanDemux reference;
    // Each delivery logs (registered flow, handler generation, packet seq):
    // a handler replaced by re-registration must never fire again.
    std::vector<std::string> got;
    std::vector<std::string> want;
    auto handler = [](std::vector<std::string>* log, FlowId flow, int gen) {
      return [log, flow, gen](const Packet& p) {
        log->push_back(std::to_string(flow) + "/" + std::to_string(gen) + "/" +
                       std::to_string(p.seq));
      };
    };
    int gen = 0;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t action = rng.uniform_int(10);
      if (action == 0) {
        // (Re-)register: most ids register once; repeats replace handlers.
        const FlowId flow = pick(rng, ids);
        ++gen;
        demux.register_flow(flow, handler(&got, flow, gen));
        reference.register_flow(flow, handler(&want, flow, gen));
      } else {
        Packet p;
        p.flow = action == 1 ? stranger(rng) : pick(rng, ids);
        p.seq = op;
        demux.deliver(p);
        reference.deliver(p);
      }
    }
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_GT(got.size(), 0u);
  }
}

TEST(Link, PerFlowCountersMatchLinearScanUnderInterleavedArrivals) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const std::vector<FlowId> ids = session_flow_ids(rng);
    Scheduler sched;
    const std::size_t buffer = 8;
    Link link(sched, LinkConfig{10e6, SimTime::millis(5), buffer});
    link.set_receiver([](const Packet&) {});
    LinearScanCounters reference;
    for (int burst = 0; burst < 200; ++burst) {
      // Every burst hits an idle link at one instant: the first packet goes
      // straight on the wire, the next `buffer` queue, the rest tail-drop.
      const std::uint64_t n = 1 + rng.uniform_int(3 * buffer);
      for (std::uint64_t i = 0; i < n; ++i) {
        Packet p;
        p.flow = pick(rng, ids);
        p.seq = burst;
        p.size_bytes = rng.uniform_int(2) ? kDataPacketBytes : kAckPacketBytes;
        link.send(p);
        LinkFlowCounters& c = reference.slot(p.flow);
        ++c.arrivals;
        if (i > buffer) ++c.drops;
      }
      sched.run();
    }
    std::uint64_t drops = 0;
    for (const FlowId flow : ids) {
      const LinkFlowCounters got = link.flow_counters(flow);
      const LinkFlowCounters want = reference.counters(flow);
      EXPECT_EQ(got.arrivals, want.arrivals) << "seed " << seed;
      EXPECT_EQ(got.drops, want.drops) << "seed " << seed;
      drops += got.drops;
    }
    EXPECT_EQ(drops, link.total_drops());
    // Flows the link never saw read as zeros, as before.
    for (int i = 0; i < 20; ++i) {
      const FlowId flow = stranger(rng);
      const LinkFlowCounters got = link.flow_counters(flow);
      const LinkFlowCounters want = reference.counters(flow);
      EXPECT_EQ(got.arrivals, want.arrivals);
      EXPECT_EQ(got.drops, want.drops);
      EXPECT_EQ(got.arrivals, 0u);
    }
  }
}

}  // namespace
}  // namespace dmp
