// Sim-level observability tests: a 2-path DMP session with obs enabled must
// emit a consistent RunReport, a gauge time series, and an event log, and
// the cross-checkable numbers (per-path packet counters vs. the client
// trace's path split) must agree exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "stream/session.hpp"

namespace dmp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SessionConfig obs_session(const std::string& prefix) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 60.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 7;
  config.obs.enabled = true;
  config.obs.output_dir = "obs_session_test_out";
  config.obs.prefix = prefix;
  config.obs.probe_interval_s = 1.0;
  config.obs.min_severity = obs::Severity::kDebug;
  return config;
}

TEST(SessionObs, DisabledByDefaultAllocatesNothing) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  const auto result = run_session(config);
  EXPECT_EQ(result.metrics, nullptr);
  EXPECT_EQ(result.events, nullptr);
  EXPECT_TRUE(result.report_path.empty());
}

TEST(SessionObs, PathCountersMatchTracePathSplit) {
  const auto result = run_session(obs_session("split"));
  ASSERT_NE(result.metrics, nullptr);

  const auto split = result.trace.path_split(2);
  const auto arrivals = static_cast<double>(result.trace.arrivals());
  ASSERT_GT(arrivals, 0.0);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto* counter = result.metrics->find_counter(
        "client.path" + std::to_string(k) + ".packets");
    ASSERT_NE(counter, nullptr) << "path " << k;
    EXPECT_EQ(counter->value(),
              static_cast<std::uint64_t>(std::llround(split[k] * arrivals)))
        << "path " << k;
  }

  // The client-side delay histogram saw every arrival.
  const auto* delay = result.metrics->find_histogram("client.delay_s");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), result.trace.arrivals());
  EXPECT_GT(delay->mean(), 0.0);

  // Server pulls flow through the same counters the trace measures: every
  // delivered packet was pulled exactly once.
  const auto* p0 = result.metrics->find_counter("server.pulls.path0");
  const auto* p1 = result.metrics->find_counter("server.pulls.path1");
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_GE(p0->value() + p1->value(), result.trace.arrivals());
}

TEST(SessionObs, EmitsReportProbeAndEventArtifacts) {
  const auto result = run_session(obs_session("artifacts"));
  ASSERT_FALSE(result.report_path.empty());
  ASSERT_TRUE(std::filesystem::exists(result.report_path));
  ASSERT_TRUE(std::filesystem::exists(result.probe_csv_path));
  ASSERT_TRUE(std::filesystem::exists(result.events_path));

  const std::string report = slurp(result.report_path);
  EXPECT_NE(report.find("\"scheme\":\"dmp\""), std::string::npos);
  EXPECT_NE(report.find("\"path_split\""), std::string::npos);
  EXPECT_NE(report.find("\"tcp.path0.retransmissions\""), std::string::npos);
  EXPECT_NE(report.find("\"client.delay_s\""), std::string::npos);

  // The probe CSV carries per-path cwnd and the server queue time series.
  const std::string csv = slurp(result.probe_csv_path);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("tcp.path0.cwnd"), std::string::npos);
  EXPECT_NE(header.find("tcp.path1.cwnd"), std::string::npos);
  EXPECT_NE(header.find("server.queue_depth"), std::string::npos);
  // ~1 sample/s over a 100 s horizon: expect a real time series.
  std::size_t rows = 0;
  for (char c : csv) {
    if (c == '\n') ++rows;
  }
  EXPECT_GT(rows, 50u);

  // Table-1 bottlenecks are congested, so drops and pulls must appear.
  ASSERT_NE(result.events, nullptr);
  EXPECT_GT(result.events->total_recorded(), 0u);
  const std::string events = slurp(result.events_path);
  EXPECT_NE(events.find("\"type\":\"pull\""), std::string::npos);
  EXPECT_NE(events.find("\"type\":\"drop\""), std::string::npos);
}

TEST(SessionObs, ReportTagsSchemeAndPolicy) {
  // Static streaming runs on the DMP server core; its report still names
  // the static scheme and the weighted split it runs.
  auto config = obs_session("static");
  config.duration_s = 20.0;
  config.scheme = StreamScheme::kStatic;
  std::string report = slurp(run_session(config).report_path);
  EXPECT_NE(report.find("\"scheme\":\"static\""), std::string::npos);
  EXPECT_NE(report.find("\"scheduler\":\"weighted\""), std::string::npos);

  config = obs_session("stored");
  config.duration_s = 20.0;
  config.scheme = StreamScheme::kStored;
  report = slurp(run_session(config).report_path);
  EXPECT_NE(report.find("\"scheme\":\"stored\""), std::string::npos);
  EXPECT_EQ(report.find("\"scheduler\""), std::string::npos);
}

// The `counters` object of a run report, from its opening brace through the
// matching close (counter values are integers, so there is no nesting).
std::string counters_block(const std::string& report_path) {
  const std::string report = slurp(report_path);
  const std::string key = "\"counters\":";
  const auto begin = report.find(key);
  if (begin == std::string::npos) return {};
  const auto end = report.find('}', begin);
  if (end == std::string::npos) return {};
  return report.substr(begin + key.size(), end + 1 - begin - key.size());
}

TEST(SessionObs, ReportCountersArePinned) {
  // Every registry counter of two fixed-seed sessions, byte for byte.  The
  // pull session runs PIE with an outage on path 1, so link drops, early
  // drops, TCP timeouts, fast retransmits and server pulls all read
  // non-zero; the stored session covers the stored server's counters.
  auto pull = obs_session("pin_pull");
  pull.path_configs = {table1_config(2), table1_config(2)};
  pull.duration_s = 30.0;
  pull.warmup_s = 5.0;
  pull.drain_s = 10.0;
  pull.seed = 909;
  pull.qdisc = "pie";
  pull.faults = "8 link_down path1; 14 link_up path1";
  pull.obs.probe_interval_s = 0.0;
  EXPECT_EQ(counters_block(run_session(pull).report_path),
      "{"
      "\"client.path0.packets\":698,\"client.path1.packets\":772,"
      "\"link.path0.arrivals\":15856,\"link.path0.delivered\":13593,"
      "\"link.path0.drops\":2244,\"link.path0.early_drops\":2231,"
      "\"link.path1.arrivals\":13689,\"link.path1.delivered\":11781,"
      "\"link.path1.drops\":1673,\"link.path1.early_drops\":1660,"
      "\"server.generated\":1500,"
      "\"server.pulls.path0\":714,\"server.pulls.path1\":822,"
      "\"server.sched.duplicates\":0,\"server.sched.parity\":0,"
      "\"sink.path0.duplicate_segments\":10,"
      "\"sink.path0.out_of_order_segments\":164,"
      "\"sink.path0.segments_received\":709,"
      "\"sink.path1.duplicate_segments\":9,"
      "\"sink.path1.out_of_order_segments\":174,"
      "\"sink.path1.segments_received\":782,"
      "\"tcp.path0.acks_received\":708,"
      "\"tcp.path0.data_packets_sent\":700,"
      "\"tcp.path0.fast_retransmits\":25,"
      "\"tcp.path0.retransmissions\":131,\"tcp.path0.timeouts\":67,"
      "\"tcp.path1.acks_received\":782,"
      "\"tcp.path1.data_packets_sent\":774,"
      "\"tcp.path1.fast_retransmits\":28,"
      "\"tcp.path1.retransmissions\":107,\"tcp.path1.timeouts\":57"
      "}");

  auto stored = obs_session("pin_stored");
  stored.duration_s = 20.0;
  stored.scheme = StreamScheme::kStored;
  stored.obs.probe_interval_s = 0.0;
  EXPECT_EQ(counters_block(run_session(stored).report_path),
      "{"
      "\"client.path0.packets\":347,\"client.path1.packets\":653,"
      "\"link.path0.arrivals\":25798,\"link.path0.delivered\":24733,"
      "\"link.path0.drops\":1060,"
      "\"link.path1.arrivals\":25815,\"link.path1.delivered\":24713,"
      "\"link.path1.drops\":1085,"
      "\"server.dispatched\":1000,"
      "\"server.pulls.path0\":347,\"server.pulls.path1\":653,"
      "\"sink.path0.duplicate_segments\":2,"
      "\"sink.path0.out_of_order_segments\":55,"
      "\"sink.path0.segments_received\":350,"
      "\"sink.path1.duplicate_segments\":2,"
      "\"sink.path1.out_of_order_segments\":73,"
      "\"sink.path1.segments_received\":655,"
      "\"tcp.path0.acks_received\":350,"
      "\"tcp.path0.data_packets_sent\":347,"
      "\"tcp.path0.fast_retransmits\":7,"
      "\"tcp.path0.retransmissions\":22,\"tcp.path0.timeouts\":3,"
      "\"tcp.path1.acks_received\":655,"
      "\"tcp.path1.data_packets_sent\":653,"
      "\"tcp.path1.fast_retransmits\":6,"
      "\"tcp.path1.retransmissions\":13,\"tcp.path1.timeouts\":2"
      "}");
}

TEST(SessionObs, ObsRunMatchesPlainRunPacketForPacket) {
  // Instrumentation must not perturb the simulation: identical seeds give
  // identical traces with and without obs attached.
  SessionConfig plain;
  plain.path_configs = {table1_config(4), table1_config(4)};
  plain.mu_pps = 50.0;
  plain.duration_s = 60.0;
  plain.warmup_s = 10.0;
  plain.drain_s = 30.0;
  plain.seed = 7;
  const auto a = run_session(plain);
  const auto b = run_session(obs_session("perturb"));
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  ASSERT_EQ(a.trace.arrivals(), b.trace.arrivals());
  for (std::size_t i = 0; i < a.trace.arrivals(); ++i) {
    ASSERT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    ASSERT_EQ(a.trace.entries()[i].arrived, b.trace.entries()[i].arrived);
  }
}

}  // namespace
}  // namespace dmp
