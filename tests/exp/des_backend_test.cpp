// DES backend contract at the session level: the queue behind the
// `calendar` spec (a radix heap) changes wall-clock time only, so a full
// packet-level session must produce the same trajectory — trace, counters,
// per-path measurements — under kHeap and kCalendar, and the default must
// preserve the experiment engine's thread-count invariance.  DMP_DES is validated like every other
// knob: unknown backends fail fast at options parse time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

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

// Every scheduler counter of a session and the profiler's per-category
// executed counts, as one line.  A cancelled timer key still occupies the
// queue until its deadline and is counted when popped, so a double count
// or a wrong skip moves `cancelled` (and usually `executed`) here.
std::string scheduler_counters(const SessionResult& r) {
  auto cat = [&r](EventCategory c) { return r.profile[c].executed; };
  return "executed=" + std::to_string(r.events_executed) +
         " cancelled=" + std::to_string(r.events_cancelled) +
         " scheduled=" + std::to_string(r.events_scheduled) +
         " max_pending=" + std::to_string(r.max_events_pending) +
         " tcp_timer=" + std::to_string(cat(EventCategory::kTcpTimer)) +
         " probe=" + std::to_string(cat(EventCategory::kProbe)) +
         " tcp_send=" + std::to_string(cat(EventCategory::kTcpSend)) +
         " link_tx=" + std::to_string(cat(EventCategory::kLinkTx)) +
         " link_delivery=" + std::to_string(cat(EventCategory::kLinkDelivery));
}

// The counters of one session under both backends, which must agree.
std::string pinned_counters(SessionConfig config) {
  config.profile = true;
  config.des = "heap";
  const std::string heap = scheduler_counters(run_session(config));
  config.des = "calendar";
  EXPECT_EQ(heap, scheduler_counters(run_session(config)));
  return heap;
}

TEST(DesBackend, SchedulerCountersArePinned) {
  // Table-1 2-2 under the paper's pull scheduler: Reno RTOs on the video
  // flows, delayed-ACK timers on the FTP/HTTP background.
  EXPECT_EQ(pinned_counters(quick_config()),
            "executed=247390 cancelled=18769 scheduled=266421 max_pending=335 "
            "tcp_timer=3320 probe=0 tcp_send=23112 link_tx=109357 "
            "link_delivery=109336");

  // K=3 redundant with path1 dark for 5 s: RTO backoff crosses the outage,
  // so timers are cancelled and re-armed from inside their own callbacks.
  auto outage = quick_config();
  outage.path_configs = {table1_config(4), table1_config(4),
                         table1_config(4)};
  outage.num_flows = 3;
  outage.mu_pps = 30.0;
  outage.scheduler = "redundant";
  outage.faults = "6 link_down path1; 11 link_up path1";
  EXPECT_EQ(pinned_counters(outage),
            "executed=449289 cancelled=36713 scheduled=486312 max_pending=382 "
            "tcp_timer=3336 probe=0 tcp_send=42990 link_tx=200072 "
            "link_delivery=200031");

  // The observability probe re-arms its own sampling timer every second.
  auto probed = quick_config();
  probed.obs.enabled = true;
  probed.obs.output_dir = "des_backend_test_out";
  probed.obs.prefix = "counters";
  probed.obs.probe_interval_s = 1.0;
  EXPECT_EQ(pinned_counters(probed),
            "executed=247425 cancelled=18769 scheduled=266456 max_pending=336 "
            "tcp_timer=3320 probe=35 tcp_send=23112 link_tx=109357 "
            "link_delivery=109336");
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
