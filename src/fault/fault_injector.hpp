// Schedule-driven fault replay for the discrete-event layer.
//
// The injector owns no network objects: the session harness registers one
// PathFaultTarget per named path, a bundle of callbacks that translate a
// FaultEvent into concrete actions (down the dumbbell bottleneck, notify
// the streaming server so it reclaims the stalled sender's unsent share,
// arm a burst-loss counter, rescale link parameters).  arm() validates
// every event against the registered targets up front — an unknown path
// or an event kind the target cannot perform throws immediately, before
// any simulated time passes — then schedules one fire-and-forget event
// per FaultEvent at epoch + t on the shared scheduler.
//
// Determinism contract (pinned by tests/fault/):
//   * an empty plan schedules nothing — the session harness does not even
//     construct an injector, so a no-fault run is byte-identical to a
//     build without the injector in the path;
//   * fault events ride the same scheduler heap as packet events, so the
//     FIFO tie-break serializes them reproducibly and replay is identical
//     at any DMP_THREADS (plans live in SessionConfig, which the
//     experiment runner copies per replication).
//
// Every fired event is counted (events_fired(), the run report's
// `fault_events_fired`) and recorded as a kPathFault flight-recorder event,
// which feeds the `path_fault` deadline-miss cause in obs::TraceAnalyzer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp::fault {

// Capability bundle for one named path.  Unset capabilities reject plans
// that need them (at arm() time, not silently at fire time).
struct PathFaultTarget {
  std::function<void(bool down)> set_down;            // link_down / link_up
  std::function<void(std::uint64_t count)> burst_loss;
  std::function<void(double bw_factor, double delay_factor)> rescale;
};

class FaultInjector {
 public:
  // Event times in `plan` are relative to `epoch` on `sched`'s clock.
  FaultInjector(Scheduler& sched, FaultPlan plan, SimTime epoch);

  // Registers the target for `name` ("path0", "path1", ...).  `path_index`
  // tags the path in flight-recorder events.  Must precede arm().
  void add_path(const std::string& name, std::int32_t path_index,
                PathFaultTarget target);

  // Validates the whole plan against the registered targets, then
  // schedules every event.  Throws std::invalid_argument on an unknown
  // target, a missing capability, or a conn_reset event (which only the
  // inet layer can perform).  Call at most once.
  void arm();

  std::size_t events_armed() const { return armed_; }
  std::size_t events_fired() const { return fired_; }
  const FaultPlan& plan() const { return plan_; }

  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

 private:
  struct Registered {
    std::int32_t index = -1;
    PathFaultTarget target;
  };

  void fire(const FaultEvent& e);
  const Registered& registered_for(const FaultEvent& e) const;

  Scheduler& sched_;
  FaultPlan plan_;
  SimTime epoch_;
  std::map<std::string, Registered> targets_;
  std::size_t armed_ = 0;
  std::size_t fired_ = 0;
  bool arm_called_ = false;

  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace dmp::fault
