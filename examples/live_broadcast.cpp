// Live broadcast over real TCP sockets (loopback demo of the Section-6
// implementation).  A DMP server streams a live feed over two TCP
// connections; the client throttles one path mid-broadcast-style to show
// the scheme shifting load with no explicit signalling.
//
//   $ ./live_broadcast [mu_pps] [duration_s]
//
// Set DMP_OBS=1 to attach the wall-clock observability layer: a server
// queue-depth time series (live_broadcast_probe.csv) and per-path
// pull/frame counters.
#include <cstdio>
#include <cstdlib>
#include <future>

#include "inet/client.hpp"
#include "inet/server.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

using namespace dmp;
using namespace dmp::inet;

int main(int argc, char** argv) {
  const double mu = argc > 1 ? std::atof(argv[1]) : 400.0;
  const double duration = argc > 2 ? std::atof(argv[2]) : 5.0;
  const bool obs_on = env_int("DMP_OBS", 0) != 0;
  obs::MetricsRegistry server_metrics;
  obs::MetricsRegistry client_metrics;

  ServerConfig server_cfg;
  server_cfg.num_paths = 2;
  server_cfg.mu_pps = mu;
  server_cfg.duration_s = duration;
  server_cfg.send_buffer_bytes = 8 * 1024;
  if (obs_on) {
    server_cfg.metrics = &server_metrics;
    server_cfg.probe_interval_s = 0.1;
    server_cfg.probe_csv_path = "live_broadcast_probe.csv";
  }

  DmpInetServer server(server_cfg);
  std::printf("DMP server listening on 127.0.0.1:%u — streaming %.0f pkts/s "
              "(%.2f Mbps) for %.0f s over 2 TCP connections\n",
              server.port(), mu, mu * 1448 * 8 / 1e6, duration);

  ClientConfig client_cfg;
  client_cfg.port = server.port();
  client_cfg.num_paths = 2;
  client_cfg.mu_pps = mu;
  // Path 2 is constrained to ~25% of the stream's bandwidth: DMP must
  // route the bulk of the feed over path 1.
  client_cfg.read_rate_limit_bps = {0.0, mu * 1448 * 8 * 0.25};
  if (obs_on) client_cfg.metrics = &client_metrics;

  auto server_future =
      std::async(std::launch::async, [&server] { return server.run(); });
  DmpInetClient client(client_cfg);
  const auto report = client.run();
  const auto stats = server_future.get();

  std::printf("\nserver: generated %lld packets (peak queue %zu)\n",
              static_cast<long long>(stats.packets_generated),
              stats.max_queue_packets);
  std::printf("client: received %lld packets\n",
              static_cast<long long>(report.frames_received));
  const auto split = report.trace.path_split(2);
  std::printf("path split: %.1f%% on the fast path, %.1f%% on the throttled "
              "path\n",
              split[0] * 100.0, split[1] * 100.0);
  std::printf("out-of-order arrivals at the reassembly buffer: %.2f%%\n",
              report.trace.out_of_order_fraction() * 100.0);
  for (double tau : {0.5, 1.0, 2.0}) {
    std::printf("late packets with tau = %.1f s startup delay: %.3f%%\n", tau,
                report.trace.late_fraction_playback_order(
                    tau, stats.packets_generated) *
                    100.0);
  }
  if (obs_on) {
    const auto* p0 = server_metrics.find_counter("server.pulls.path0");
    const auto* p1 = server_metrics.find_counter("server.pulls.path1");
    const auto* delay = client_metrics.find_histogram("client.delay_s");
    std::printf("\nobs: pulls %llu / %llu, delay p50/p99 = %.0f/%.0f ms; "
                "wrote live_broadcast_probe.csv\n",
                static_cast<unsigned long long>(p0 ? p0->value() : 0),
                static_cast<unsigned long long>(p1 ? p1->value() : 0),
                delay ? delay->quantile(0.5) * 1e3 : 0.0,
                delay ? delay->quantile(0.99) * 1e3 : 0.0);
  }
  return 0;
}
