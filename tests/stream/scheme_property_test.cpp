// Scheme-level property sweeps: conservation (every generated packet is
// delivered exactly once) must hold for every scheme, path asymmetry and
// seed; and the DMP split must track capacity ratios.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "net/topology.hpp"
#include "stream/dmp_server.hpp"
#include "stream/session.hpp"
#include "stream/stored_server.hpp"
#include "stream/stream_server.hpp"
#include "stream/trace.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

enum class Scheme { kDmp, kStatic, kStored };

struct Rig {
  Rig(double bw1, double bw2, std::uint64_t jitter_seed) {
    path1 = std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw1, SimTime::millis(15), 40});
    path2 = std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw2, SimTime::millis(25), 40});
    TcpConfig tcp;
    tcp.delayed_ack = false;
    tcp.send_overhead_s = 0.0003;
    tcp.jitter_seed = jitter_seed;
    c1 = make_connection(sched, 1, *path1, tcp);
    c2 = make_connection(sched, 2, *path2, tcp);
    trace = std::make_unique<StreamTrace>(80.0);
    c1.sink->set_deliver_callback([this](std::int64_t tag, SimTime) {
      trace->record(tag, sched.now(), 0);
    });
    c2.sink->set_deliver_callback([this](std::int64_t tag, SimTime) {
      trace->record(tag, sched.now(), 1);
    });
  }

  Scheduler sched;
  std::unique_ptr<DumbbellPath> path1, path2;
  TcpConnection c1, c2;
  std::unique_ptr<StreamTrace> trace;
};

class SchemeSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, double, int>> {};

TEST_P(SchemeSweep, ConservationExactlyOnce) {
  const auto [scheme, bw2, seed] = GetParam();
  Rig rig(2e6, bw2, static_cast<std::uint64_t>(seed));
  std::vector<RenoSender*> senders{rig.c1.sender.get(), rig.c2.sender.get()};

  std::int64_t total = 0;
  std::unique_ptr<DmpStreamingServer> dmp;
  std::unique_ptr<StreamServer> fixed;
  std::unique_ptr<StoredStreamingServer> stored;
  switch (scheme) {
    case Scheme::kDmp:
      dmp = std::make_unique<DmpStreamingServer>(
          rig.sched, 80.0, senders, SimTime::zero(), SimTime::seconds(60));
      break;
    case Scheme::kStatic: {
      // Built as sessions build it: the DMP core with the static policy.
      SessionConfig config;
      config.scheme = StreamScheme::kStatic;
      config.mu_pps = 80.0;
      fixed = make_stream_server(config, rig.sched, senders, SimTime::zero(),
                                 SimTime::seconds(60));
      break;
    }
    case Scheme::kStored:
      stored = std::make_unique<StoredStreamingServer>(rig.sched, 4800,
                                                       senders);
      break;
  }
  rig.sched.run_until(SimTime::seconds(400));

  if (dmp) total = dmp->packets_generated();
  if (fixed) total = fixed->packets_generated();
  if (stored) total = stored->packets_total();

  ASSERT_GT(total, 1000);
  ASSERT_EQ(static_cast<std::int64_t>(rig.trace->arrivals()), total)
      << "scheme lost or duplicated packets";
  std::vector<bool> seen(static_cast<std::size_t>(total), false);
  for (const auto& e : rig.trace->entries()) {
    ASSERT_GE(e.packet_number, 0);
    ASSERT_LT(e.packet_number, total);
    ASSERT_FALSE(seen[static_cast<std::size_t>(e.packet_number)]);
    seen[static_cast<std::size_t>(e.packet_number)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeSweep,
    ::testing::Combine(::testing::Values(Scheme::kDmp, Scheme::kStatic,
                                         Scheme::kStored),
                       ::testing::Values(2e6, 0.7e6),
                       ::testing::Values(1, 2)));

class DmpSplitSweep : public ::testing::TestWithParam<double> {};

TEST_P(DmpSplitSweep, SplitTracksCapacityRatio) {
  const double bw_ratio = GetParam();
  Rig rig(3e6, 3e6 / bw_ratio, 9);
  std::vector<RenoSender*> senders{rig.c1.sender.get(), rig.c2.sender.get()};
  // Saturating load so the split reflects achievable throughputs.
  DmpStreamingServer server(rig.sched, 400.0, senders, SimTime::zero(),
                            SimTime::seconds(120));
  rig.sched.run_until(SimTime::seconds(240));
  const auto split = rig.trace->path_split(2);
  const double observed = split[0] / split[1];
  EXPECT_GT(observed, bw_ratio * 0.55) << "bw_ratio " << bw_ratio;
  EXPECT_LT(observed, bw_ratio * 1.9) << "bw_ratio " << bw_ratio;
}

INSTANTIATE_TEST_SUITE_P(CapacityRatios, DmpSplitSweep,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace dmp
