#include "fault/fault_injector.hpp"

#include <stdexcept>

namespace dmp::fault {

FaultInjector::FaultInjector(Scheduler& sched, FaultPlan plan, SimTime epoch)
    : sched_(sched), plan_(std::move(plan)), epoch_(epoch) {}

void FaultInjector::add_path(const std::string& name, std::int32_t path_index,
                             PathFaultTarget target) {
  if (arm_called_) {
    throw std::logic_error{"fault injector: add_path after arm()"};
  }
  targets_[name] = Registered{path_index, std::move(target)};
}

const FaultInjector::Registered& FaultInjector::registered_for(
    const FaultEvent& e) const {
  const auto it = targets_.find(e.target);
  if (it == targets_.end()) {
    throw std::invalid_argument{"fault plan: unknown target '" + e.target +
                                "' in event '" + e.to_string() + "'"};
  }
  return it->second;
}

void FaultInjector::arm() {
  if (arm_called_) throw std::logic_error{"fault injector: arm() twice"};
  arm_called_ = true;
  // Validate everything before scheduling anything: a plan either replays
  // in full or is rejected whole.
  for (const FaultEvent& e : plan_.events) {
    const Registered& reg = registered_for(e);
    switch (e.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
        if (!reg.target.set_down) {
          throw std::invalid_argument{
              "fault plan: target '" + e.target + "' cannot link_down/up"};
        }
        break;
      case FaultKind::kBurstLoss:
        if (!reg.target.burst_loss) {
          throw std::invalid_argument{
              "fault plan: target '" + e.target + "' cannot burst_loss"};
        }
        break;
      case FaultKind::kRescale:
        if (!reg.target.rescale) {
          throw std::invalid_argument{
              "fault plan: target '" + e.target + "' cannot rescale"};
        }
        break;
      case FaultKind::kConnReset:
        throw std::invalid_argument{
            "fault plan: conn_reset is an inet-layer event (event '" +
            e.to_string() + "'); simulated sessions cannot replay it"};
    }
  }
  for (const FaultEvent& e : plan_.events) {
    sched_.post_at(epoch_ + SimTime::seconds(e.t_s),
                   [this, &e] { fire(e); }, EventCategory::kFault);
    ++armed_;
  }
}

void FaultInjector::fire(const FaultEvent& e) {
  const Registered& reg = registered_for(e);
  // Record first so the trace shows the fault before its consequences
  // (reclaim pulls, fault drops) at the same timestamp.
  if (flight_) {
    obs::FlightEvent fe;
    fe.t_ns = sched_.now().ns();
    fe.kind = obs::FlightEventKind::kPathFault;
    fe.path = reg.index;
    fe.seq = static_cast<std::int64_t>(e.kind);
    if (e.kind == FaultKind::kBurstLoss) {
      fe.queue = static_cast<std::int64_t>(e.count);
    }
    flight_->record(fe);
  }
  ++fired_;
  switch (e.kind) {
    case FaultKind::kLinkDown:
      reg.target.set_down(true);
      break;
    case FaultKind::kLinkUp:
      reg.target.set_down(false);
      break;
    case FaultKind::kBurstLoss:
      reg.target.burst_loss(e.count);
      break;
    case FaultKind::kRescale:
      reg.target.rescale(e.bw_factor, e.delay_factor);
      break;
    case FaultKind::kConnReset:
      break;  // rejected by arm()
  }
}

}  // namespace dmp::fault
