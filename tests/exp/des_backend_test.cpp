// DES backend contract at the session level: the queue behind the
// `calendar` spec (a radix heap) changes wall-clock time only, so a full
// packet-level session must produce the same trajectory — trace, counters,
// per-path measurements — under kHeap and kCalendar, and the default must
// preserve the experiment engine's thread-count invariance.  DMP_DES is validated like every other
// knob: unknown backends fail fast at options parse time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "exp/options.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "stream/session.hpp"

namespace dmp::exp {
namespace {

SessionConfig quick_config(StreamScheme scheme = StreamScheme::kDmp) {
  SessionConfig config;
  config.path_configs = {table1_config(2), table1_config(2)};
  config.num_flows = 2;
  config.mu_pps = 50.0;
  config.duration_s = 20.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  config.scheme = scheme;
  config.seed = 20071211;
  return config;
}

void expect_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.trace.entries().size(), b.trace.entries().size());
  ASSERT_GT(a.trace.entries().size(), 0u);
  for (std::size_t i = 0; i < a.trace.entries().size(); ++i) {
    ASSERT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    ASSERT_EQ(a.trace.entries()[i].arrived.ns(),
              b.trace.entries()[i].arrived.ns());
    ASSERT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path);
  }
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t k = 0; k < a.paths.size(); ++k) {
    EXPECT_EQ(a.paths[k].loss_rate, b.paths[k].loss_rate);
    EXPECT_EQ(a.paths[k].rtt_s, b.paths[k].rtt_s);
    EXPECT_EQ(a.paths[k].to_ratio, b.paths[k].to_ratio);
    EXPECT_EQ(a.paths[k].share, b.paths[k].share);
  }
}

TEST(DesBackend, HeapAndCalendarSessionsAreBitIdentical) {
  auto calendar = quick_config();
  calendar.des = "calendar";
  auto heap = quick_config();
  heap.des = "heap";
  expect_identical(run_session(calendar), run_session(heap));
}

TEST(DesBackend, HeapAndCalendarMatchUnderStaticScheme) {
  auto calendar = quick_config(StreamScheme::kStatic);
  calendar.des = "calendar";
  auto heap = quick_config(StreamScheme::kStatic);
  heap.des = "heap";
  expect_identical(run_session(calendar), run_session(heap));
}

TEST(DesBackend, DefaultBackendIsCalendar) {
  // The default-constructed config and an explicit "calendar" run the same
  // engine: identical results, and the documented default spelling.
  EXPECT_EQ(SessionConfig{}.des, "calendar");
  auto explicit_cal = quick_config();
  explicit_cal.des = "calendar";
  expect_identical(run_session(quick_config()), run_session(explicit_cal));
}

TEST(DesBackend, UnknownBackendFailsFast) {
  auto config = quick_config();
  config.des = "splay";
  EXPECT_THROW(run_session(config), std::invalid_argument);
}

TEST(DesBackend, AggregateReportIsThreadCountInvariantUnderCalendar) {
  ExperimentPlan plan;
  plan.name = "des_backend_test";
  plan.seed = 777;
  plan.replications = 3;
  auto config = quick_config();
  config.des = "calendar";
  plan.settings.push_back({"dmp", config});
  const auto serial = ExperimentRunner(1).run(plan);
  const auto parallel = ExperimentRunner(4).run(plan);
  EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json());
  ASSERT_EQ(serial.settings.size(), 1u);
  EXPECT_FALSE(serial.settings[0].metrics.empty());
}

TEST(DesBackend, DmpDesKnobParsesAndValidates) {
  unsetenv("DMP_DES");
  EXPECT_EQ(BenchOptions::from_env().des, "calendar");
  setenv("DMP_DES", "heap", 1);
  EXPECT_EQ(BenchOptions::from_env().des, "heap");
  setenv("DMP_DES", "calendar", 1);
  EXPECT_EQ(BenchOptions::from_env().des, "calendar");
  setenv("DMP_DES", "splay", 1);
  EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument);
  unsetenv("DMP_DES");
}

}  // namespace
}  // namespace dmp::exp
