#include "stream/stream_server.hpp"

#include <cmath>

#include "stream/dmp_server.hpp"
#include "stream/scheduler/strategies.hpp"
#include "stream/session.hpp"
#include "stream/stored_server.hpp"

namespace dmp {

std::unique_ptr<StreamServer> make_stream_server(
    const SessionConfig& config, Scheduler& sched,
    std::vector<RenoSender*> senders, SimTime epoch, SimTime duration) {
  return make_stream_server(config, sched, std::move(senders), epoch,
                            duration, SchedulerSpec::parse(config.scheduler));
}

std::unique_ptr<StreamServer> make_stream_server(
    const SessionConfig& config, Scheduler& sched,
    std::vector<RenoSender*> senders, SimTime epoch, SimTime duration,
    const SchedulerSpec& scheduler_spec) {
  switch (config.scheme) {
    case StreamScheme::kDmp: {
      // Default `weighted` weights: the configured path rates, so the
      // static split targets each path's provisioned share of the stream.
      std::vector<double> path_rates;
      for (std::size_t k = 0; k < senders.size(); ++k) {
        const PathConfig& path =
            config.correlated ? config.path_configs[0] : config.path_configs[k];
        path_rates.push_back(path.bandwidth_bps);
      }
      const std::size_t num_paths = senders.size();
      return std::make_unique<DmpStreamingServer>(
          sched, config.mu_pps, std::move(senders), epoch, duration,
          make_path_scheduler(scheduler_spec, num_paths, path_rates));
    }
    case StreamScheme::kStatic: {
      // The Section-7.4 baseline: a fixed weighted split whose dead path
      // keeps its share under faults (empty weights = even split).
      auto policy = std::make_unique<WeightedScheduler>(
          senders.size(), config.static_weights, /*reroutes_on_fault=*/false);
      return std::make_unique<DmpStreamingServer>(
          sched, config.mu_pps, std::move(senders), epoch, duration,
          std::move(policy));
    }
    case StreamScheme::kStored:
      return std::make_unique<StoredStreamingServer>(
          sched,
          static_cast<std::int64_t>(
              std::llround(config.mu_pps * config.duration_s)),
          std::move(senders), epoch);
  }
  return nullptr;  // unreachable
}

}  // namespace dmp
