// inet_loopback: the real-socket DMP server and client over the host's
// loopback interface.  Traffic never crosses a real link, so delays are
// kernel + poll-loop scheduling delays, not network delays.
#include <algorithm>
#include <future>
#include <stdexcept>

#include "inet/client.hpp"
#include "inet/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// High enough that the poll loops' per-frame CPU matters (~35 Mbit/s of
// 1448-byte frames), low enough for a loaded 4-core host.  The seed moves
// the rate by up to 1%.
constexpr double kMuPps = 3000.0;
constexpr double kDurationS = 2.0;
constexpr std::size_t kPaths = 2;
constexpr int kSendBufferBytes = 8 * 1024;
// Path 1 may read a quarter of the stream's bit rate.
constexpr std::size_t kThrottledPath = 1;
constexpr double kThrottleShare = 0.25;

// Frames missing, duplicated or outside [0, generated); appends each good
// frame's generation-to-arrival delay to `latencies` when non-null.
std::uint64_t delivery_faults(
    const std::vector<dmp::StreamTraceEntry>& entries, std::size_t generated,
    double mu_pps, std::vector<double>* latencies) {
  const dmp::StreamTrace clock(mu_pps);
  std::vector<bool> seen(generated, false);
  std::uint64_t bad = 0;
  for (const auto& e : entries) {
    const auto n = static_cast<std::size_t>(e.packet_number);
    if (e.packet_number < 0 || n >= generated || seen[n]) {
      ++bad;
      continue;
    }
    seen[n] = true;
    if (latencies) {
      latencies->push_back(
          (e.arrived - clock.generation_time(e.packet_number)).to_seconds());
    }
  }
  return bad + static_cast<std::uint64_t>(
                   std::count(seen.begin(), seen.end(), false));
}

class InetWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    dmp::Rng rng(seed);
    mu_pps_ = kMuPps * (1.0 + 0.01 * rng.uniform(-1.0, 1.0));
  }

  BatchOutcome run_batch(const RunContext& ctx) override {
    BatchOutcome outcome;
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    dmp::inet::ServerConfig server_config;
    server_config.num_paths = kPaths;
    server_config.mu_pps = mu_pps_;
    server_config.duration_s = kDurationS;
    server_config.send_buffer_bytes = kSendBufferBytes;
    server_config.accept_timeout_ms = 5000;
    dmp::inet::DmpInetServer server(server_config);

    dmp::inet::ClientConfig client_config;
    client_config.port = server.port();
    client_config.num_paths = kPaths;
    client_config.mu_pps = mu_pps_;
    client_config.read_rate_limit_bps.assign(kPaths, 0.0);
    client_config.read_rate_limit_bps[kThrottledPath] =
        mu_pps_ * static_cast<double>(dmp::inet::kDefaultFrameBytes) * 8.0 *
        kThrottleShare;

    const SpanContext parent = tls_span_context;
    auto server_done = std::async(std::launch::async, [&] {
      Span span(ctx.tracer, "DmpInetServer.run", "inet",
                SpanContext{parent.span, 1});
      return server.run();
    });
    dmp::inet::ClientReport report;
    std::string client_error;
    try {
      Span span(ctx.tracer, "DmpInetClient.run", "inet");
      report = dmp::inet::DmpInetClient(client_config).run();
    } catch (const std::exception& e) {
      client_error = e.what();
      server.request_stop();
    }
    dmp::inet::ServerStats stats;
    try {
      stats = server_done.get();
    } catch (const std::exception& e) {
      record_failure(&outcome, std::string("server: ") + e.what());
    }
    outcome.makespan_s = seconds_since(start);
    if (!client_error.empty()) record_failure(&outcome, "client: " + client_error);
    if (!outcome.errors.empty()) {
      outcome.attempted = std::max<std::uint64_t>(outcome.attempted, 1);
      return outcome;
    }

    // Output check: every generated frame arrives exactly once.
    const auto generated = static_cast<std::size_t>(stats.packets_generated);
    const auto& entries = report.trace.entries();
    outcome.attempted = generated;
    outcome.failed = delivery_faults(entries, generated, mu_pps_,
                                     &outcome.op_latency_s);
    if (outcome.failed) {
      outcome.errors.push_back(std::to_string(outcome.failed) +
                               " frames missing, duplicated or unknown");
    }
    if (sample_entries_.empty()) {
      sample_entries_ = entries;
      sample_generated_ = generated;
    }
    outcome.busy_s = outcome.makespan_s;
    max_queue_frames_ = std::max(max_queue_frames_, stats.max_queue_packets);
    if (!ctx.tracer && generated > 0) {
      delays_.insert(delays_.end(), outcome.op_latency_s.begin(),
                     outcome.op_latency_s.end());
      cpu_us_per_frame_.push_back((process_cpu_s() - cpu_start) * 1e6 /
                                  static_cast<double>(generated));
    }
    return outcome;
  }

  void layer_metrics(const RunContext& ctx, Metrics* out) override {
    {
      Span span(ctx.tracer, "FrameParser.feed", "inet");
      out->set("inet.framing_ns_per_frame",
               drive_framing_ns_per_frame(seed_, 2000000), "ns");
    }
    out->set("inet.max_queue_frames", static_cast<double>(max_queue_frames_),
             "count");
    out->set("inet.frame_delay_p99_ms", quantile(delays_, 0.99) * 1e3, "ms");
    out->set("inet.cpu_us_per_frame", median(cpu_us_per_frame_), "us");
  }

  std::string record() const override {
    return "workload inet_loopback seed " + std::to_string(seed_) + ": " +
           std::to_string(kPaths) + " loopback paths, mu=" + num(mu_pps_) +
           " frames/s for " + num(kDurationS) + " s, SO_SNDBUF=" +
           std::to_string(kSendBufferBytes) + " B, path " +
           std::to_string(kThrottledPath) + " read-throttled to " +
           num(kThrottleShare) +
           " of the stream rate\n  why: the only workload reaching inet; "
           "traffic crosses loopback, not a real link\n";
  }

  // Nothing deterministic to record: the check is exactly-once delivery.
  void record_catalog(const RunContext&) override {}

  // Drops one frame from a real arrival trace: the check must flag it.
  bool planted_mismatch_caught(const RunContext&,
                               const BatchOutcome&) const override {
    if (sample_entries_.size() < 2) return false;
    auto planted = sample_entries_;
    planted.erase(planted.begin() + static_cast<long>(planted.size() / 2));
    return delivery_faults(sample_entries_, sample_generated_, mu_pps_, nullptr) == 0 &&
           delivery_faults(planted, sample_generated_, mu_pps_, nullptr) == 1;
  }

 private:
  std::uint64_t seed_ = 0;
  double mu_pps_ = kMuPps;
  std::size_t max_queue_frames_ = 0;
  std::vector<double> delays_;  // untraced batches
  std::vector<double> cpu_us_per_frame_;  // untraced batches
  std::vector<dmp::StreamTraceEntry> sample_entries_;
  std::size_t sample_generated_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_inet_loopback() {
  return std::make_unique<InetWorkload>();
}

}  // namespace perfbench
