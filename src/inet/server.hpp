// Real-socket DMP-streaming server (the paper's Section-6 implementation).
//
// One thread, one ppoll() loop — which *is* the paper's server-queue lock:
// packet fetches by the per-path TCP senders are serialized by construction.
// A CBR generator appends packet n to the shared queue at t0 + n/mu: the
// loop sleeps with a nanosecond ppoll() timeout to exactly that instant (or
// the next conn_reset), so frames are queued within timer slack of their
// due time rather than in late bursts.  Whenever a connection's kernel send
// buffer has room (POLLOUT), that connection fetches from the head of the
// queue until write() would block.  The loop offers queued frames to open
// connections in ascending order of kernel send-queue bytes (SIOCOUTQ),
// ties broken by a rotating start: like the paper's one-thread-per-path
// design, the sender whose buffer drained first fetches next.  Small
// SO_SNDBUF values make blocking — and therefore the implicit bandwidth
// inference — responsive.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "inet/framing.hpp"
#include "inet/socket.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/time_series.hpp"

namespace dmp::inet {

struct ServerConfig {
  std::string bind_ip = "127.0.0.1";  // "0.0.0.0" serves remote clients
  std::uint16_t port = 0;  // 0 = pick an ephemeral port
  std::size_t num_paths = 2;
  double mu_pps = 100.0;
  double duration_s = 10.0;
  std::size_t frame_bytes = kDefaultFrameBytes;
  int send_buffer_bytes = 16 * 1024;
  int accept_timeout_ms = 10000;

  // Optional wall-clock fault schedule (src/fault/ spec grammar).  Only
  // `conn_reset` events are valid at this layer — the constructor rejects
  // any other kind — and times are seconds after the stream starts.  Each
  // event force-closes the named path's connection with a TCP RST
  // (SO_LINGER 0); the partially-written frame is re-queued so another path
  // carries it, and a client configured to reconnect resumes the path with
  // a hello naming the last frame it received.  While any path is down the
  // listener stays in the poll set, so mid-run re-accepts replace the dead
  // connection without disturbing the healthy ones.
  std::string faults{};
  // Frames retained per path for resume-after-reconnect replay: on a resume
  // hello, retained frames newer than the client's last_seq are re-queued
  // (they may have died in the broken connection's kernel buffers).
  std::size_t replay_frames = 4096;

  // Optional wall-clock observability (never owned by the server; may be
  // null).  When `metrics` is set, the run maintains `server.generated`,
  // per-path `server.pulls.path<k>` counters and a `server.queue_depth`
  // gauge; with `probe_interval_s > 0` and a CSV path, the poll loop also
  // samples those gauges into a time series.
  obs::MetricsRegistry* metrics = nullptr;
  double probe_interval_s = 0.0;
  std::string probe_csv_path;
  // Optional per-packet flight recorder (not owned; may be null).  Records
  // kGenerate / kPull span events with wall-clock (CLOCK_MONOTONIC) t_ns
  // and sets meta to the generation epoch.  The recorder is NOT thread-safe:
  // give the server and the client (usually on another thread) separate
  // recorders.
  obs::FlightRecorder* flight = nullptr;
  // Optional streaming-telemetry channels (not owned; may be null).  Fed
  // with wall-clock timestamps relative to the generation epoch, so the
  // windows line up with the simulator's sim-time channels: per-window
  // generated-frame counts and the shared queue depth sampled once per
  // poll iteration.
  obs::TimeSeriesChannel* telemetry_generated = nullptr;
  obs::TimeSeriesChannel* telemetry_queue_depth = nullptr;
};

struct ServerStats {
  std::int64_t packets_generated = 0;
  std::vector<std::uint64_t> sent_per_path;
  std::size_t max_queue_packets = 0;
  std::uint64_t stream_start_ns = 0;  // monotonic clock at generation start
  std::uint64_t conn_resets = 0;      // fault events fired
  std::uint64_t reaccepts = 0;        // mid-run reconnections served
  // How late the generator ran: the instant a frame was queued minus its
  // due instant t0 + n/mu, over all generated frames.
  std::int64_t max_generation_lag_ns = 0;
  double mean_generation_lag_ns = 0.0;
};

// ppoll() timeout that expires exactly at `due_ns` (both CLOCK_MONOTONIC
// nanoseconds); zero once the deadline has passed.
timespec timeout_until(std::uint64_t now_ns, std::uint64_t due_ns);

// Writes the offer order of connections 0..n-1 (n = order.size()) into
// `order`: ascending kernel send-queue bytes `outq[i]`, ties broken by
// rotation distance from `rotate`.  A negative entry (failed SIOCOUTQ)
// counts as 0.  Allocation-free; n is the path count.
void offer_order(std::span<const int> outq, std::size_t rotate,
                 std::span<std::size_t> order);

class DmpInetServer {
 public:
  explicit DmpInetServer(ServerConfig config);

  // Bound listening port (valid immediately after construction).
  std::uint16_t port() const { return port_; }

  // Accepts num_paths connections, streams for duration_s, flushes the
  // queue, closes the connections and returns the statistics.  Throws on
  // socket errors or accept timeout.
  ServerStats run();

  // Asks a concurrently running run() to wind down early.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct Connection {
    Fd fd;
    bool open = false;
    std::vector<unsigned char> partial;  // unwritten tail of a fetched frame
    std::size_t partial_offset = 0;
    Frame partial_frame{};  // the frame `partial` encodes (for re-queue)
    std::uint64_t sent_frames = 0;
    std::deque<Frame> replay;       // recently sent, for resume replay
    obs::Counter* pulls = nullptr;  // set when ServerConfig::metrics is
    std::int32_t path = -1;         // hello-declared path index
  };

  // Writes queued data into `conn` until EAGAIN or nothing left; returns
  // false if the connection failed.
  bool pump_connection(Connection& conn);

  // Accepts one connection and reads its hello.  Returns the hello-declared
  // path index, or num_paths if the hello is invalid (socket dropped).
  std::size_t accept_path(int timeout_ms, Hello* hello, Fd* fd);

  ServerConfig config_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::deque<Frame> queue_;
  // Parsed conn_reset schedule: (seconds after stream start, path index).
  std::vector<std::pair<double, std::size_t>> resets_;
  std::atomic<bool> stop_{false};
};

}  // namespace dmp::inet
