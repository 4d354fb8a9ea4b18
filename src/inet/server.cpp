#include "inet/server.hpp"

#include <linux/sockios.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "fault/fault_plan.hpp"
#include "obs/probe.hpp"

namespace dmp::inet {

namespace {

std::uint64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Closes `fd` with a TCP RST instead of an orderly FIN, so the peer sees a
// hard connection failure (ECONNRESET), not a clean end of stream.
void close_with_rst(Fd& fd) {
  if (!fd.valid()) return;
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  fd.reset();
}

}  // namespace

timespec timeout_until(std::uint64_t now_ns, std::uint64_t due_ns) {
  const std::uint64_t left = due_ns > now_ns ? due_ns - now_ns : 0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(left / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(left % 1'000'000'000ull);
  return ts;
}

void offer_order(std::span<const int> outq, std::size_t rotate,
                 std::span<std::size_t> order) {
  const std::size_t n = order.size();
  const auto key = [&outq](std::size_t i) { return std::max(outq[i], 0); };
  // Insertion in rotation order; the strict comparison keeps ties in it.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t idx = (rotate + j) % n;
    std::size_t pos = j;
    for (; pos > 0 && key(order[pos - 1]) > key(idx); --pos) {
      order[pos] = order[pos - 1];
    }
    order[pos] = idx;
  }
}

DmpInetServer::DmpInetServer(ServerConfig config) : config_(config) {
  if (config_.num_paths == 0) throw std::invalid_argument{"need >= 1 path"};
  if (config_.mu_pps <= 0.0) throw std::invalid_argument{"mu must be > 0"};
  if (config_.frame_bytes < kFrameHeaderBytes) {
    throw std::invalid_argument{"frame too small"};
  }
  if (!config_.faults.empty()) {
    const auto plan = fault::FaultPlan::parse(config_.faults);
    for (const auto& e : plan.events) {
      if (e.kind != fault::FaultKind::kConnReset) {
        throw std::invalid_argument{
            "inet server faults: only conn_reset applies at this layer, got " +
            e.to_string()};
      }
      std::size_t path = 0;
      if (!fault::parse_path_index(e.target, &path) ||
          path >= config_.num_paths) {
        throw std::invalid_argument{"inet server faults: unknown target '" +
                                    e.target + "'"};
      }
      resets_.emplace_back(e.t_s, path);
    }
  }
  listener_ = listen_on(config_.bind_ip, config_.port, &port_);
}

std::size_t DmpInetServer::accept_path(int timeout_ms, Hello* hello, Fd* fd) {
  Fd accepted = accept_with_timeout(listener_, timeout_ms);
  if (!accepted.valid()) return config_.num_paths;
  // Read the fixed-size hello before the socket joins the nonblocking poll
  // set; a peer that sends nothing within 2 s is dropped.
  unsigned char buf[kHelloBytes];
  std::size_t got = 0;
  while (got < kHelloBytes) {
    pollfd p{accepted.get(), POLLIN, 0};
    if (::poll(&p, 1, 2000) <= 0) return config_.num_paths;
    const ssize_t n = ::read(accepted.get(), buf + got, kHelloBytes - got);
    if (n <= 0) return config_.num_paths;
    got += static_cast<std::size_t>(n);
  }
  if (!decode_hello(buf, hello)) return config_.num_paths;
  if (hello->path_id >= config_.num_paths) return config_.num_paths;
  *fd = std::move(accepted);
  return static_cast<std::size_t>(hello->path_id);
}

bool DmpInetServer::pump_connection(Connection& conn) {
  // Flush a partially-written frame first: it already belongs to this path.
  while (true) {
    if (conn.partial_offset < conn.partial.size()) {
      const ssize_t n = ::write(conn.fd.get(),
                                conn.partial.data() + conn.partial_offset,
                                conn.partial.size() - conn.partial_offset);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;  // connection failed
      }
      conn.partial_offset += static_cast<std::size_t>(n);
      if (conn.partial_offset < conn.partial.size()) continue;
      ++conn.sent_frames;
      conn.partial.clear();
      conn.partial_offset = 0;
    }
    if (queue_.empty()) return true;
    // Fetch the head-of-queue packet (the Fig. 2 fetch step).
    const Frame frame = queue_.front();
    queue_.pop_front();
    conn.partial_frame = frame;
    conn.replay.push_back(frame);
    while (conn.replay.size() > config_.replay_frames) conn.replay.pop_front();
    if (conn.pulls) conn.pulls->inc();
    if (config_.flight) {
      obs::FlightEvent e;
      e.t_ns = static_cast<std::int64_t>(monotonic_ns());
      e.kind = obs::FlightEventKind::kPull;
      e.packet = static_cast<std::int64_t>(frame.packet_number);
      e.path = conn.path;
      e.queue = static_cast<std::int64_t>(queue_.size());
      config_.flight->record(e);
    }
    conn.partial.assign(config_.frame_bytes, 0);
    encode_frame_header(frame, conn.partial.data());
    conn.partial_offset = 0;
  }
}

ServerStats DmpInetServer::run() {
  const std::uint64_t run_epoch_ns = monotonic_ns();
  const auto elapsed_s = [run_epoch_ns] {
    return static_cast<double>(monotonic_ns() - run_epoch_ns) * 1e-9;
  };

  // Wall-clock observability: the same counter/gauge/probe layer the
  // simulator uses, driven by the poll loop instead of the scheduler.
  obs::Counter* m_generated = nullptr;
  std::vector<obs::Counter*> m_pulls;
  std::unique_ptr<obs::WallClockProbe> wall_probe;
  if (config_.metrics) {
    m_generated = &config_.metrics->counter("server.generated");
    for (std::size_t i = 0; i < config_.num_paths; ++i) {
      m_pulls.push_back(&config_.metrics->counter("server.pulls.path" +
                                                  std::to_string(i)));
    }
    config_.metrics->gauge("server.queue_depth").set_sampler([this] {
      return static_cast<double>(queue_.size());
    });
    if (config_.probe_interval_s > 0.0 && !config_.probe_csv_path.empty()) {
      wall_probe = std::make_unique<obs::WallClockProbe>(
          *config_.metrics, std::vector<std::string>{"server.queue_depth"},
          config_.probe_csv_path,
          static_cast<std::uint64_t>(config_.probe_interval_s * 1e9));
    }
  }

  // Initial accepts: each client connection declares its path index in the
  // hello, so path identity survives accept-order races and reconnects.
  std::vector<Connection> connections(config_.num_paths);
  for (std::size_t i = 0; i < config_.num_paths; ++i) {
    connections[i].path = static_cast<std::int32_t>(i);
    if (!m_pulls.empty()) connections[i].pulls = m_pulls[i];
  }
  for (std::size_t accepted = 0; accepted < config_.num_paths;) {
    Hello hello;
    Fd fd;
    const std::size_t k = accept_path(config_.accept_timeout_ms, &hello, &fd);
    if (k >= config_.num_paths) throw std::runtime_error{"accept timed out"};
    if (connections[k].open) throw std::runtime_error{"duplicate path hello"};
    set_nonblocking(fd);
    set_no_delay(fd);
    set_send_buffer(fd, config_.send_buffer_bytes);
    connections[k].fd = std::move(fd);
    connections[k].open = true;
    ++accepted;
    if (config_.events && config_.events->enabled(obs::Severity::kInfo)) {
      config_.events->record(elapsed_s(), obs::Severity::kInfo, "accept",
                             {obs::EventField::num("path", k)});
    }
  }

  ServerStats stats;
  stats.sent_per_path.assign(config_.num_paths, 0);
  const auto total_packets = static_cast<std::int64_t>(
      std::llround(config_.mu_pps * config_.duration_s));
  const double period_ns = 1e9 / config_.mu_pps;
  const std::uint64_t t0 = monotonic_ns();
  stats.stream_start_ns = t0;
  // Due instant of frame n: t0 + n/mu.
  const auto generation_due = [t0, period_ns](std::int64_t n) {
    return t0 + static_cast<std::uint64_t>(
                    std::llround(static_cast<double>(n) * period_ns));
  };
  if (config_.flight) {
    config_.flight->set_meta(config_.mu_pps, static_cast<std::int64_t>(t0),
                             total_packets);
  }
  std::int64_t generated = 0;
  std::uint64_t generation_lag_sum_ns = 0;
  std::size_t rotate = 0;
  std::size_t next_reset = 0;
  std::uint64_t all_closed_since = 0;  // 0 = at least one path open

  // Closes a path and re-queues its in-flight frame so a healthy path (or
  // the reconnected one) carries it.
  const auto close_path = [this](Connection& conn, bool rst) {
    if (rst) {
      close_with_rst(conn.fd);
    } else {
      conn.fd.reset();
    }
    conn.open = false;
    if (!conn.partial.empty()) {
      queue_.push_front(conn.partial_frame);
      conn.partial.clear();
      conn.partial_offset = 0;
    }
  };

  std::vector<pollfd> pfds(connections.size() + 1);  // + the listener
  std::vector<int> outq(connections.size());  // SIOCOUTQ bytes per path
  std::vector<std::size_t> order(connections.size());
  while (true) {
    if (stop_.load(std::memory_order_relaxed)) break;
    const std::uint64_t now = monotonic_ns();

    // Fire due conn_reset fault events: the path drops with a TCP RST.
    while (next_reset < resets_.size() &&
           resets_[next_reset].first <= static_cast<double>(now - t0) * 1e-9) {
      const std::size_t k = resets_[next_reset].second;
      ++next_reset;
      ++stats.conn_resets;
      if (config_.events && config_.events->enabled(obs::Severity::kWarn)) {
        config_.events->record(elapsed_s(), obs::Severity::kWarn, "conn_reset",
                               {obs::EventField::num("path", k)});
      }
      if (connections[k].open) close_path(connections[k], true);
    }

    // Generate every packet whose scheduled instant has passed.
    while (generated < total_packets) {
      const std::uint64_t due = generation_due(generated);
      if (due > now) break;
      queue_.push_back(Frame{static_cast<std::uint64_t>(generated), due});
      ++generated;
      const std::uint64_t lag = now - due;
      generation_lag_sum_ns += lag;
      stats.max_generation_lag_ns = std::max(
          stats.max_generation_lag_ns, static_cast<std::int64_t>(lag));
      if (m_generated) m_generated->inc();
      if (config_.telemetry_generated) {
        config_.telemetry_generated->bump(
            SimTime::nanos(static_cast<std::int64_t>(now - t0)));
      }
      if (config_.flight) {
        obs::FlightEvent e;
        e.t_ns = static_cast<std::int64_t>(now);
        e.kind = obs::FlightEventKind::kGenerate;
        e.packet = generated - 1;
        e.queue = static_cast<std::int64_t>(queue_.size());
        config_.flight->record(e);
      }
    }
    stats.max_queue_packets = std::max(stats.max_queue_packets, queue_.size());
    if (config_.telemetry_queue_depth) {
      config_.telemetry_queue_depth->add(
          SimTime::nanos(static_cast<std::int64_t>(now - t0)),
          static_cast<double>(queue_.size()));
    }
    if (wall_probe) wall_probe->poll(now);

    // Offer data to every open connection, emptiest kernel send queue
    // first (rotating start breaks ties).  The depths only matter while
    // frames wait and at least two connections compete for them.
    const bool compete =
        !queue_.empty() &&
        std::count_if(connections.begin(), connections.end(),
                      [](const Connection& c) { return c.open; }) >= 2;
    for (std::size_t i = 0; i < connections.size(); ++i) {
      outq[i] = 0;  // also what a failed query leaves
      if (compete && connections[i].open) {
        ::ioctl(connections[i].fd.get(), SIOCOUTQ, &outq[i]);
      }
    }
    offer_order(outq, rotate, order);
    for (const std::size_t k : order) {
      auto& conn = connections[k];
      if (!conn.open) continue;
      if (!pump_connection(conn)) {
        // Without a fault schedule a broken pipe is a hard error (the
        // legacy behaviour); under faults the path just goes down until
        // the client reconnects.
        if (resets_.empty()) {
          throw std::runtime_error{"stream connection failed"};
        }
        close_path(conn, false);
      }
    }
    rotate = (rotate + 1) % connections.size();

    const bool flushed = queue_.empty() &&
                         std::all_of(connections.begin(), connections.end(),
                                     [](const Connection& c) {
                                       return !c.open || c.partial.empty();
                                     });
    if (generated == total_packets && flushed) break;

    // If every client is gone, wait at most the accept timeout for a
    // reconnect before declaring the stream dead.
    const bool any_open = std::any_of(
        connections.begin(), connections.end(),
        [](const Connection& c) { return c.open; });
    if (any_open) {
      all_closed_since = 0;
    } else if (all_closed_since == 0) {
      all_closed_since = now;
    } else if (config_.accept_timeout_ms > 0 &&
               now - all_closed_since >
                   static_cast<std::uint64_t>(config_.accept_timeout_ms) *
                       1'000'000ull) {
      break;
    }

    // Sleep until exactly the next generation instant or conn_reset (at
    // most 1 s), or until a blocked connection becomes writable again.
    const std::uint64_t now2 = monotonic_ns();
    std::uint64_t wake = now2 + 1'000'000'000ull;
    if (generated < total_packets) {
      wake = std::min(wake, generation_due(generated));
    }
    if (next_reset < resets_.size()) {
      wake = std::min(wake, t0 + static_cast<std::uint64_t>(
                                     resets_[next_reset].first * 1e9));
    }
    const timespec timeout = timeout_until(now2, wake);
    for (std::size_t i = 0; i < connections.size(); ++i) {
      pfds[i].fd = connections[i].open ? connections[i].fd.get() : -1;
      const bool wants_out =
          connections[i].open &&
          (!connections[i].partial.empty() || !queue_.empty());
      pfds[i].events = static_cast<short>(wants_out ? POLLOUT : 0);
      pfds[i].revents = 0;
    }
    // The listener joins the poll set while any path is down, so a
    // reconnecting client is served immediately.
    const bool any_down = std::any_of(
        connections.begin(), connections.end(),
        [](const Connection& c) { return !c.open; });
    pfds.back().fd = any_down ? listener_.get() : -1;
    pfds.back().events = POLLIN;
    pfds.back().revents = 0;
    if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      throw std::runtime_error{std::string{"ppoll: "} + std::strerror(errno)};
    }

    // Serve a mid-run reconnect: the resume hello names the path and the
    // last frame the client received on it.
    if (any_down && (pfds.back().revents & POLLIN) != 0) {
      Hello hello;
      Fd fd;
      const std::size_t k = accept_path(0, &hello, &fd);
      if (k < config_.num_paths && !connections[k].open) {
        set_nonblocking(fd);
        set_no_delay(fd);
        set_send_buffer(fd, config_.send_buffer_bytes);
        auto& conn = connections[k];
        conn.fd = std::move(fd);
        conn.open = true;
        conn.partial.clear();
        conn.partial_offset = 0;
        // Resume replay: everything this path sent after the client's last
        // received frame returns to the FRONT of the shared queue in order
        // (those frames may have died in the dead connection's kernel
        // buffers).  An unknown last_seq replays the whole retained window;
        // the client dedups.
        std::size_t start = 0;
        if (hello.last_seq != kFreshHello) {
          for (std::size_t j = conn.replay.size(); j > 0; --j) {
            if (conn.replay[j - 1].packet_number == hello.last_seq) {
              start = j;
              break;
            }
          }
        }
        const std::size_t replayed = conn.replay.size() - start;
        for (std::size_t j = conn.replay.size(); j > start; --j) {
          queue_.push_front(conn.replay[j - 1]);
        }
        ++stats.reaccepts;
        if (config_.events && config_.events->enabled(obs::Severity::kInfo)) {
          config_.events->record(elapsed_s(), obs::Severity::kInfo,
                                 "re_accept",
                                 {obs::EventField::num("path", k),
                                  obs::EventField::num("replayed", replayed)});
        }
      }
    }
  }

  // Clean end of stream: every surviving path with no half-written frame
  // gets a sentinel so the client can tell a finished stream (EOF after
  // the sentinel) from a dead connection (EOF without it).
  {
    std::vector<unsigned char> sentinel(config_.frame_bytes, 0);
    encode_frame_header(Frame{kEndOfStream, monotonic_ns()}, sentinel.data());
    for (auto& conn : connections) {
      if (!conn.open || !conn.partial.empty()) continue;
      std::size_t off = 0;
      const std::uint64_t give_up = monotonic_ns() + 2'000'000'000ull;
      while (off < sentinel.size() && monotonic_ns() < give_up) {
        const ssize_t n = ::write(conn.fd.get(), sentinel.data() + off,
                                  sentinel.size() - off);
        if (n > 0) {
          off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
        pollfd p{conn.fd.get(), POLLOUT, 0};
        ::poll(&p, 1, 100);
      }
    }
  }

  stats.packets_generated = generated;
  if (generated > 0) {
    stats.mean_generation_lag_ns = static_cast<double>(generation_lag_sum_ns) /
                                   static_cast<double>(generated);
  }
  for (std::size_t i = 0; i < connections.size(); ++i) {
    stats.sent_per_path[i] = connections[i].sent_frames;
  }
  if (config_.metrics) config_.metrics->freeze_samplers();
  if (config_.events && config_.events->enabled(obs::Severity::kInfo)) {
    config_.events->record(
        elapsed_s(), obs::Severity::kInfo, "stream_end",
        {obs::EventField::num("generated", generated),
         obs::EventField::num("max_queue", stats.max_queue_packets)});
  }
  // Destructors close the sockets, signalling EOF to the client.
  return stats;
}

}  // namespace dmp::inet
