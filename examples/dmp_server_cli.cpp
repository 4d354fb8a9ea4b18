// Standalone DMP streaming server.
//
//   $ ./dmp_server_cli --port 9000 --paths 2 --kbps 600 --duration 60
//   $ ./dmp_server_cli --bind 0.0.0.0 --port 9000   # serve remote clients
//
// Streams a live CBR feed over `paths` TCP connections with the DMP pull
// discipline; pairs with dmp_client_cli.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inet/server.hpp"

using namespace dmp::inet;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--bind IP] [--port N] [--paths K] [--kbps RATE]\n"
               "          [--duration SECONDS] [--sndbuf BYTES]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  config.port = 9000;
  double kbps = 600.0;
  config.duration_s = 60.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--bind") {
      config.bind_ip = next();
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--paths") {
      config.num_paths = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--kbps") {
      kbps = std::atof(next());
    } else if (arg == "--duration") {
      config.duration_s = std::atof(next());
    } else if (arg == "--sndbuf") {
      config.send_buffer_bytes = std::atoi(next());
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  config.mu_pps = kbps * 1000.0 / 8.0 / static_cast<double>(config.frame_bytes);

  try {
    DmpInetServer server(config);
    std::printf("dmp_server: %s:%u, %zu paths, %.0f kbps (%.1f pkts/s), "
                "%.0f s — waiting for the client...\n",
                config.bind_ip.c_str(), server.port(), config.num_paths, kbps,
                config.mu_pps, config.duration_s);
    const auto stats = server.run();
    std::printf("done: generated %lld packets, peak queue %zu\n",
                static_cast<long long>(stats.packets_generated),
                stats.max_queue_packets);
    std::printf("  generation lag: max %.3f ms, mean %.3f ms\n",
                static_cast<double>(stats.max_generation_lag_ns) * 1e-6,
                stats.mean_generation_lag_ns * 1e-6);
    for (std::size_t k = 0; k < stats.sent_per_path.size(); ++k) {
      std::printf("  path %zu carried %llu packets (%.1f%%)\n", k + 1,
                  static_cast<unsigned long long>(stats.sent_per_path[k]),
                  100.0 * static_cast<double>(stats.sent_per_path[k]) /
                      static_cast<double>(stats.packets_generated));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmp_server: %s\n", e.what());
    return 1;
  }
  return 0;
}
