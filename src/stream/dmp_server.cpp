#include "stream/dmp_server.hpp"

#include <cmath>
#include <stdexcept>

#include "stream/scheduler/strategies.hpp"

namespace dmp {

namespace {

// Runs before period_ = 1/mu is computed, so a zero, negative or NaN rate
// throws instead of converting a non-finite period to integer nanoseconds.
double checked_mu(double mu_pps) {
  if (!std::isfinite(mu_pps) || mu_pps <= 0) {
    throw std::invalid_argument{"mu must be positive and finite"};
  }
  return mu_pps;
}

}  // namespace

DmpStreamingServer::DmpStreamingServer(
    Scheduler& sched, double mu_pps, std::vector<RenoSender*> senders,
    SimTime start, SimTime duration, std::unique_ptr<PathScheduler> scheduler)
    : sched_(sched),
      mu_pps_(checked_mu(mu_pps)),
      senders_(std::move(senders)),
      period_(SimTime::seconds(1.0 / mu_pps_)),
      end_(start + duration),
      scheduler_(std::move(scheduler)) {
  if (senders_.empty()) throw std::invalid_argument{"DMP needs >= 1 sender"};
  if (!scheduler_) scheduler_ = std::make_unique<PullScheduler>(senders_.size());
  pulls_.assign(senders_.size(), 0);
  down_.assign(senders_.size(), false);
  path_state_.assign(senders_.size(), SchedPathState{});
  for (std::size_t k = 0; k < senders_.size(); ++k) {
    senders_[k]->set_space_callback([this, k] { window_open(k); });
  }
  sched_.post_at(start, [this] { generate(); }, EventCategory::kSource);
}

void DmpStreamingServer::attach_metrics(obs::MetricsRegistry& registry,
                                        const std::string& prefix) {
  registry.counter(prefix + ".generated").set_sampler([this] {
    return static_cast<std::uint64_t>(next_number_);
  });
  for (std::size_t k = 0; k < senders_.size(); ++k) {
    registry.counter(prefix + ".pulls.path" + std::to_string(k))
        .set_sampler([this, k] { return pulls_[k]; });
  }
  registry.counter(prefix + ".sched.duplicates")
      .set_sampler([this] { return duplicates_sent_; });
  registry.counter(prefix + ".sched.parity")
      .set_sampler([this] { return parity_sent_; });
  registry.gauge(prefix + ".queue_depth").set_sampler([this] {
    return static_cast<double>(queue_.size());
  });
  registry.gauge(prefix + ".max_queue_depth").set_sampler([this] {
    return static_cast<double>(max_queue_);
  });
}

void DmpStreamingServer::generate() {
  const std::int64_t number = next_number_++;
  queue_.push_back(number);
  max_queue_ = std::max(max_queue_, queue_.size());
  if (flight_) {
    obs::FlightEvent e;
    e.t_ns = sched_.now().ns();
    e.kind = obs::FlightEventKind::kGenerate;
    e.packet = number;
    e.queue = static_cast<std::int64_t>(queue_.size());
    flight_->record(e);
  }
  if (ts_generated_) ts_generated_->bump(sched_.now());
  scheduler_->on_generate(number);
  // At generation instants several senders may have space (e.g. during
  // startup); the policy decides who gets the backlog.
  scheduler_->on_offer();
  drain();
  // Post-offer backlog: what the CBR source left behind after every sender
  // with space took its share — the paper's "TCP lags generation" signal.
  if (ts_backlog_) {
    ts_backlog_->add(sched_.now(), static_cast<double>(queue_.size()));
  }
  if (sched_.now() + period_ < end_) {
    sched_.post_after(period_, [this] { generate(); }, EventCategory::kSource);
  }
}

void DmpStreamingServer::window_open(std::size_t k) {
  // A failed path must not soak up fresh packets: its sender would sit on
  // them behind a dead link.  (The flag is only ever set by the fault
  // injector; fault-free runs never take this branch.)
  if (down_[k]) return;
  scheduler_->on_window_open(k);
  drain();
}

void DmpStreamingServer::drain() {
  SchedDecision decision;
  while (true) {
    for (std::size_t k = 0; k < senders_.size(); ++k) {
      path_state_[k].space = senders_[k]->space();
      path_state_[k].down = down_[k];
      path_state_[k].srtt_s = senders_[k]->srtt_s();
      path_state_[k].oldest_unacked = senders_[k]->oldest_unacked_tag();
      path_state_[k].rto_backoff = senders_[k]->rto_backoff();
    }
    if (!scheduler_->pick(path_state_, queue_, &decision)) return;
    execute(decision);
  }
}

void DmpStreamingServer::execute(const SchedDecision& decision) {
  const std::size_t k = decision.path;
  switch (decision.kind) {
    case SchedDecision::Kind::kPull: {
      // The fetch is recorded before enqueue() so trace lines stay in
      // lifecycle order (enqueue itself emits the tcp/link events).
      const std::int64_t number = queue_[decision.queue_pos];
      queue_.erase(queue_.begin() +
                   static_cast<std::ptrdiff_t>(decision.queue_pos));
      ++pulls_[k];
      if (flight_) {
        obs::FlightEvent e;
        e.t_ns = sched_.now().ns();
        e.kind = obs::FlightEventKind::kPull;
        e.packet = number;
        e.path = static_cast<std::int32_t>(k);
        e.queue = static_cast<std::int64_t>(queue_.size());
        flight_->record(e);
      }
      if (event_log_ && event_log_->enabled(obs::Severity::kDebug)) {
        event_log_->record(sched_.now().to_seconds(), obs::Severity::kDebug,
                           "pull",
                           {obs::EventField::num("path", k),
                            obs::EventField::num("packet", number),
                            obs::EventField::num("queue", queue_.size())});
      }
      senders_[k]->enqueue(number);
      break;
    }
    case SchedDecision::Kind::kDuplicate:
    case SchedDecision::Kind::kParity: {
      const bool dup = decision.kind == SchedDecision::Kind::kDuplicate;
      if (dup) {
        ++duplicates_sent_;
        if (ts_duplicates_) ts_duplicates_->bump(sched_.now());
      } else {
        ++parity_sent_;
        if (ts_parity_) ts_parity_->bump(sched_.now());
      }
      if (flight_) {
        obs::FlightEvent e;
        e.t_ns = sched_.now().ns();
        e.kind = obs::FlightEventKind::kSchedDecision;
        e.packet = decision.packet;
        e.path = static_cast<std::int32_t>(k);
        e.queue = static_cast<std::int64_t>(queue_.size());
        flight_->record(e);
      }
      if (event_log_ && event_log_->enabled(obs::Severity::kDebug)) {
        event_log_->record(sched_.now().to_seconds(), obs::Severity::kDebug,
                           dup ? "dup" : "parity",
                           {obs::EventField::num("path", k),
                            obs::EventField::num("packet", decision.packet),
                            obs::EventField::num("queue", queue_.size())});
      }
      senders_[k]->enqueue(decision.packet);
      break;
    }
  }
}

void DmpStreamingServer::on_path_down(std::size_t k) {
  if (!scheduler_->reroutes_on_fault()) return;
  down_[k] = true;
  // Segments the dead sender accepted but never transmitted go back to the
  // head of the shared queue (they are older than anything queued there),
  // in their original order.  Segments already on the wire stay with TCP —
  // recovery is organic once the link returns.
  const auto tags = senders_[k]->reclaim_unsent();
  reclaimed_ += tags.size();
  queue_.insert(queue_.begin(), tags.begin(), tags.end());
  max_queue_ = std::max(max_queue_, queue_.size());
  if (event_log_ && event_log_->enabled(obs::Severity::kInfo)) {
    event_log_->record(sched_.now().to_seconds(), obs::Severity::kInfo,
                       "reclaim",
                       {obs::EventField::num("path", k),
                        obs::EventField::num("packets", tags.size()),
                        obs::EventField::num("queue", queue_.size())});
  }
  std::vector<AtRiskPacket> at_risk;
  for (const auto& segment : senders_[k]->transmitted_unacked()) {
    at_risk.push_back(AtRiskPacket{
        segment.app_tag, (sched_.now() - segment.last_sent).to_seconds()});
  }
  scheduler_->on_path_down(k, tags, at_risk, senders_[k]->srtt_s());
  // Re-offer the (reclaimed) backlog to the surviving senders.
  scheduler_->on_offer();
  drain();
}

void DmpStreamingServer::on_path_up(std::size_t k) {
  if (!scheduler_->reroutes_on_fault()) return;
  down_[k] = false;
  scheduler_->on_path_up(k);
  scheduler_->on_window_open(k);
  drain();
}

}  // namespace dmp
