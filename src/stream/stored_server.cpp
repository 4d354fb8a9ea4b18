#include "stream/stored_server.hpp"

#include <numeric>
#include <stdexcept>

namespace dmp {

StoredStreamingServer::StoredStreamingServer(Scheduler& sched,
                                             std::int64_t total_packets,
                                             std::vector<RenoSender*> senders,
                                             SimTime start)
    : sched_(sched), senders_(std::move(senders)), total_(total_packets) {
  if (senders_.empty()) throw std::invalid_argument{"need >= 1 sender"};
  if (total_ <= 0) throw std::invalid_argument{"video must be non-empty"};
  pulls_.assign(senders_.size(), 0);
  down_.assign(senders_.size(), false);
  for (std::size_t k = 0; k < senders_.size(); ++k) {
    senders_[k]->set_space_callback([this, k] { pull_into(k); });
  }
  // Prime every sender at `start` — the whole video is available then.
  sched_.post_at(start, [this] {
    for (std::size_t k = 0; k < senders_.size(); ++k) pull_into(k);
  }, EventCategory::kSource);
}

void StoredStreamingServer::attach_metrics(obs::MetricsRegistry& registry,
                                           const std::string& prefix) {
  registry.counter(prefix + ".dispatched").set_sampler([this] {
    return std::accumulate(pulls_.begin(), pulls_.end(), std::uint64_t{0});
  });
  for (std::size_t k = 0; k < senders_.size(); ++k) {
    registry.counter(prefix + ".pulls.path" + std::to_string(k))
        .set_sampler([this, k] { return pulls_[k]; });
  }
  registry.gauge(prefix + ".remaining").set_sampler([this] {
    return static_cast<double>(total_ - next_number_) +
           static_cast<double>(redispatch_.size());
  });
}

void StoredStreamingServer::pull_into(std::size_t k) {
  // Skipped while the path is down (fault injector); fault-free runs never
  // set the flag.
  if (down_[k]) return;
  // Fetch recorded before enqueue() so trace lines stay in lifecycle order
  // (enqueue itself emits the tcp/link events).  Reclaimed numbers (from a
  // failed path) are older than next_number_ and are served first.
  while ((!redispatch_.empty() || next_number_ < total_) &&
         senders_[k]->space() > 0) {
    std::int64_t number;
    if (!redispatch_.empty()) {
      number = redispatch_.front();
      redispatch_.pop_front();
    } else {
      number = next_number_++;
    }
    ++pulls_[k];
    if (flight_) {
      obs::FlightEvent e;
      e.t_ns = sched_.now().ns();
      e.kind = obs::FlightEventKind::kPull;
      e.packet = number;
      e.path = static_cast<std::int32_t>(k);
      e.queue = total_ - next_number_ +
                static_cast<std::int64_t>(redispatch_.size());
      flight_->record(e);
    }
    if (ts_generated_) ts_generated_->bump(sched_.now());
    if (ts_backlog_) {
      ts_backlog_->add(sched_.now(),
                       static_cast<double>(total_ - next_number_) +
                           static_cast<double>(redispatch_.size()));
    }
    senders_[k]->enqueue(number);
  }
}

void StoredStreamingServer::on_path_down(std::size_t k) {
  down_[k] = true;
  const auto tags = senders_[k]->reclaim_unsent();
  reclaimed_ += tags.size();
  redispatch_.insert(redispatch_.begin(), tags.begin(), tags.end());
  for (std::size_t i = 0; i < senders_.size(); ++i) pull_into(i);
}

void StoredStreamingServer::on_path_up(std::size_t k) {
  down_[k] = false;
  pull_into(k);
}

}  // namespace dmp
