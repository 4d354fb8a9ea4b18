// Differential suite for static streaming on the DMP server core.
//
// StreamScheme::kStatic used to have its own server: private per-path
// queues fed by a fixed deficit split, no reaction to faults.  It now runs
// on DmpStreamingServer with a `weighted` PathScheduler that does not
// reroute on faults.  ReferenceStaticServer below is a copy of the old
// server's dispatch logic (observability hooks other than the backlog
// series dropped); every arm runs it and the factory-built kStatic server
// on identical rigs and requires byte-identical client traces, executed
// event counts, per-path pull counts and `server.backlog` telemetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/topology.hpp"
#include "obs/telemetry/time_series.hpp"
#include "stream/scheduler/weighted_split.hpp"
#include "stream/session.hpp"
#include "stream/stream_server.hpp"
#include "stream/trace.hpp"
#include "tcp/connection.hpp"

namespace dmp {
namespace {

// The pre-fold static server: packet n is assigned up front by the shared
// deficit rule to a private per-path queue; sender k only ever drains
// queue k.  Faults are latched and otherwise ignored.
class ReferenceStaticServer {
 public:
  ReferenceStaticServer(Scheduler& sched, double mu_pps,
                        std::vector<RenoSender*> senders, SimTime start,
                        SimTime duration, std::vector<double> weights)
      : sched_(sched),
        senders_(std::move(senders)),
        period_(SimTime::seconds(1.0 / mu_pps)),
        end_(start + duration),
        split_(senders_.size(), std::move(weights)),
        queues_(senders_.size()),
        pulls_(senders_.size(), 0),
        down_(senders_.size(), false) {
    for (std::size_t k = 0; k < senders_.size(); ++k) {
      senders_[k]->set_space_callback([this, k] { pull_into(k); });
    }
    sched_.post_at(start, [this] { generate(); }, EventCategory::kSource);
  }

  std::int64_t packets_generated() const { return next_number_; }
  std::uint64_t pulls(std::size_t k) const { return pulls_[k]; }
  void set_backlog_channel(obs::TimeSeriesChannel* backlog) {
    ts_backlog_ = backlog;
  }
  void on_path_down(std::size_t k) { down_[k] = true; }
  void on_path_up(std::size_t k) { down_[k] = false; }

 private:
  void generate() {
    const std::size_t k = split_.assign();
    queues_[k].push_back(next_number_++);
    pull_into(k);
    if (ts_backlog_) {
      std::size_t backlog = 0;
      for (const auto& q : queues_) backlog += q.size();
      ts_backlog_->add(sched_.now(), static_cast<double>(backlog));
    }
    if (sched_.now() + period_ < end_) {
      sched_.post_after(period_, [this] { generate(); },
                        EventCategory::kSource);
    }
  }

  void pull_into(std::size_t k) {
    while (!queues_[k].empty() && senders_[k]->space() > 0) {
      const std::int64_t number = queues_[k].front();
      queues_[k].pop_front();
      ++pulls_[k];
      senders_[k]->enqueue(number);
    }
  }

  Scheduler& sched_;
  std::vector<RenoSender*> senders_;
  SimTime period_;
  SimTime end_;
  WeightedSplit split_;
  std::vector<std::deque<std::int64_t>> queues_;
  std::int64_t next_number_ = 0;
  std::vector<std::uint64_t> pulls_;
  std::vector<bool> down_;
  obs::TimeSeriesChannel* ts_backlog_ = nullptr;
};

enum class Arm { kEven, kUneven, kCongested, kOutage };

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kEven: return "even";
    case Arm::kUneven: return "uneven";
    case Arm::kCongested: return "congested";
    case Arm::kOutage: return "outage";
  }
  return "";
}

constexpr double kMuPps = 100.0;
constexpr double kDurationS = 40.0;
constexpr double kHorizonS = 120.0;
// Outage arm: path 1 goes down mid-stream and comes back before the end.
constexpr double kDownAtS = 12.0;
constexpr double kUpAtS = 22.0;

// What one run leaves behind, in comparable form.
struct RunOutput {
  std::vector<std::int64_t> trace;  // (packet, arrival ns, path) triples
  std::uint64_t events_executed = 0;
  std::int64_t generated = 0;
  std::vector<std::uint64_t> pulls;
  std::vector<obs::Window> backlog;
};

// Runs one arm with K paths.  `use_reference` selects the pre-fold server;
// otherwise the server comes from make_stream_server (StreamScheme::kStatic).
RunOutput run_arm(Arm arm, std::size_t num_paths, bool use_reference) {
  Scheduler sched;
  std::vector<std::unique_ptr<DumbbellPath>> paths;
  std::vector<TcpConnection> conns;
  std::vector<RenoSender*> senders;
  StreamTrace trace(kMuPps);
  TcpConfig tcp;
  tcp.delayed_ack = false;
  tcp.send_buffer_packets = 32;
  for (std::size_t k = 0; k < num_paths; ++k) {
    double bw = 2e6;
    if (arm == Arm::kUneven) bw = 3e6 / static_cast<double>(k + 1);
    if (arm == Arm::kCongested && k == 1) bw = 0.3e6;
    const SimTime delay =
        SimTime::millis(15 + 10 * static_cast<std::int64_t>(k));
    paths.push_back(std::make_unique<DumbbellPath>(
        sched, BottleneckConfig{bw, delay, 40}));
    conns.push_back(make_connection(sched, static_cast<FlowId>(k + 1),
                                    *paths.back(), tcp));
    conns.back().sink->set_deliver_callback(
        [&sched, &trace, k](std::int64_t tag, SimTime) {
          trace.record(tag, sched.now(), static_cast<std::uint32_t>(k));
        });
    senders.push_back(conns.back().sender.get());
  }
  std::vector<double> weights;
  if (arm == Arm::kUneven) {
    for (std::size_t k = 0; k < num_paths; ++k) {
      weights.push_back(static_cast<double>(num_paths - k));
    }
  }

  obs::TimeSeriesChannel backlog("server.backlog", 1'000'000'000);
  std::unique_ptr<ReferenceStaticServer> reference;
  std::unique_ptr<StreamServer> server;
  if (use_reference) {
    reference = std::make_unique<ReferenceStaticServer>(
        sched, kMuPps, senders, SimTime::zero(),
        SimTime::seconds(kDurationS), weights);
    reference->set_backlog_channel(&backlog);
  } else {
    SessionConfig config;
    config.scheme = StreamScheme::kStatic;
    config.mu_pps = kMuPps;
    config.num_flows = num_paths;
    config.static_weights = weights;
    server = make_stream_server(config, sched, senders, SimTime::zero(),
                                SimTime::seconds(kDurationS));
    server->set_telemetry(&backlog, nullptr);
  }
  // Same wiring as the session's fault target: link first, then server.
  const auto set_down = [&](bool down) {
    paths[1]->set_path_down(down);
    if (reference) {
      if (down) reference->on_path_down(1); else reference->on_path_up(1);
    } else {
      if (down) server->on_path_down(1); else server->on_path_up(1);
    }
  };
  if (arm == Arm::kOutage) {
    sched.post_at(SimTime::seconds(kDownAtS), [&] { set_down(true); },
                  EventCategory::kFault);
    sched.post_at(SimTime::seconds(kUpAtS), [&] { set_down(false); },
                  EventCategory::kFault);
  }
  sched.run_until(SimTime::seconds(kHorizonS));

  RunOutput out;
  for (const auto& e : trace.entries()) {
    out.trace.push_back(e.packet_number);
    out.trace.push_back(e.arrived.ns());
    out.trace.push_back(static_cast<std::int64_t>(e.path));
  }
  out.events_executed = sched.events_executed();
  out.generated = reference ? reference->packets_generated()
                            : server->packets_generated();
  for (std::size_t k = 0; k < num_paths; ++k) {
    out.pulls.push_back(reference ? reference->pulls(k) : server->pulls(k));
  }
  out.backlog = backlog.finish();
  return out;
}

class StaticDifferential
    : public ::testing::TestWithParam<std::tuple<Arm, std::size_t>> {};

TEST_P(StaticDifferential, DmpCoreIsByteIdenticalToReference) {
  const auto [arm, num_paths] = GetParam();
  const RunOutput expected = run_arm(arm, num_paths, /*use_reference=*/true);
  const RunOutput actual = run_arm(arm, num_paths, /*use_reference=*/false);

  ASSERT_GT(expected.generated, 3000);
  ASSERT_FALSE(expected.trace.empty());
  EXPECT_EQ(actual.generated, expected.generated);
  EXPECT_EQ(actual.events_executed, expected.events_executed);
  EXPECT_EQ(actual.pulls, expected.pulls);

  ASSERT_EQ(actual.trace.size(), expected.trace.size());
  EXPECT_EQ(std::memcmp(actual.trace.data(), expected.trace.data(),
                        expected.trace.size() * sizeof(std::int64_t)),
            0);

  ASSERT_EQ(actual.backlog.size(), expected.backlog.size());
  ASSERT_FALSE(expected.backlog.empty());
  for (std::size_t i = 0; i < expected.backlog.size(); ++i) {
    const obs::Window& a = actual.backlog[i];
    const obs::Window& e = expected.backlog[i];
    EXPECT_EQ(a.index, e.index) << "window " << i;
    EXPECT_EQ(a.count, e.count) << "window " << i;
    EXPECT_EQ(std::memcmp(&a.sum, &e.sum, sizeof(double)), 0) << "window " << i;
    EXPECT_EQ(std::memcmp(&a.min, &e.min, sizeof(double)), 0) << "window " << i;
    EXPECT_EQ(std::memcmp(&a.max, &e.max, sizeof(double)), 0) << "window " << i;
    EXPECT_EQ(std::memcmp(&a.last, &e.last, sizeof(double)), 0)
        << "window " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arms, StaticDifferential,
    ::testing::Combine(::testing::Values(Arm::kEven, Arm::kUneven,
                                         Arm::kCongested, Arm::kOutage),
                       ::testing::Values(std::size_t{2}, std::size_t{3})),
    [](const ::testing::TestParamInfo<StaticDifferential::ParamType>& arm) {
      return std::string(arm_name(std::get<0>(arm.param))) + "_K" +
             std::to_string(std::get<1>(arm.param));
    });

}  // namespace
}  // namespace dmp
