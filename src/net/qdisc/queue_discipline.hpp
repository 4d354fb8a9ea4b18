// Pluggable queue disciplines for the bottleneck link.
//
// Every figure in the paper assumes a drop-tail bottleneck; AQM reshapes
// exactly the loss/RTT processes the DMP scheme (and the CTMC model fed
// from them) exploits.  QueueDiscipline extracts the enqueue/drop decision
// from Link::send behind an interface so the same link core can run
// DropTail, PIE (RFC 8033), FQ-PIE (per-flow hashing + DRR) and CoDel
// (RFC 8289), chosen by a validated spec string (the DMP_QDISC bench
// knob, grammar mirroring DMP_SCHED).
//
// Contract (see docs/AQM.md for controller equations and counters):
//   * The qdisc owns the packet queue; the Link owns the transmitter and
//     all observability.  Drops — whether the arriving packet, a different
//     victim (FQ-PIE overlimit) or a queued head (CoDel, at dequeue) — are
//     reported through the drop handler so the Link's counters and flight
//     recorder see every discard exactly once.
//   * `droptail` reproduces the legacy Link::send decision exactly: same
//     admit/drop sequence, no RNG consumed, so the default configuration —
//     and therefore every golden figure — is byte-identical to the
//     pre-interface implementation (pinned by tests/net/qdisc_test.cpp and
//     the fault/golden_figures_test droptail pins).
//   * AQM controllers are deterministic: PIE steps its drop-probability
//     controller lazily off arrival timestamps (no scheduler timers) and
//     draws early-drop trials from a per-link seeded Rng, so runs are a
//     pure function of (config, seed) at any DMP_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace dmp {

// Why a qdisc discarded a packet.  kOverlimit is the buffer-limit discard
// every discipline can make (for droptail it is the only one); kEarly is
// an AQM controller decision taken while the buffer still has room.
enum class QdiscDropReason : std::uint8_t { kOverlimit, kEarly };

std::string_view qdisc_drop_reason_name(QdiscDropReason reason);

// Discard tallies by reason.  `ecn_marks` is reserved: the repo's Reno
// senders do not negotiate ECN, so AQM signals congestion by dropping.
struct QdiscCounters {
  std::uint64_t overlimit_drops = 0;
  std::uint64_t early_drops = 0;
  std::uint64_t ecn_marks = 0;
};

class QueueDiscipline {
 public:
  // Called once per discard, before enqueue()/dequeue() return, with the
  // victim packet (not necessarily the packet being enqueued) and the
  // reason.  The Link routes this into its drop counters / flight recorder.
  using DropHandler = std::function<void(const Packet&, QdiscDropReason)>;

  virtual ~QueueDiscipline() = default;

  // Canonical kind name ("droptail", "pie", "fq_pie", "codel").
  virtual const char* name() const = 0;

  // Offers `p` to the queue.  Returns false when the ARRIVING packet was
  // not admitted (it was dropped and reported); true when it was queued —
  // possibly after a different victim was dropped to make room.
  virtual bool enqueue(const Packet& p, SimTime now) = 0;

  // Pops the next packet to transmit into `*out`.  Returns false when the
  // queue is empty (CoDel may discard queued packets and then report
  // empty).  `now` is the dequeue instant, used for sojourn-time AQM.
  virtual bool dequeue(Packet* out, SimTime now) = 0;

  // Packets currently queued (excludes the one on the wire).
  virtual std::size_t len() const = 0;

  // The transmitter's drain rate, for queue-delay estimates (PIE).  Set at
  // link construction and again on fault-injected rescale.
  virtual void set_drain_rate(double /*bps*/) {}

  void set_drop_handler(DropHandler handler) {
    drop_handler_ = std::move(handler);
  }
  const QdiscCounters& counters() const { return counters_; }

 protected:
  // Tallies and reports one discard; implementations call this for every
  // packet they throw away.
  void drop(const Packet& p, QdiscDropReason reason) {
    if (reason == QdiscDropReason::kEarly) {
      ++counters_.early_drops;
    } else {
      ++counters_.overlimit_drops;
    }
    if (drop_handler_) drop_handler_(p, reason);
  }

 private:
  DropHandler drop_handler_;
  QdiscCounters counters_;
};

// --- controller parameter defaults (RFC 8033 / RFC 8289) ---
inline constexpr double kPieDefaultTargetS = 0.015;
inline constexpr double kPieDefaultTupdateS = 0.015;
inline constexpr double kPieAlpha = 0.125;   // per-tupdate, on qdelay error
inline constexpr double kPieBeta = 1.25;     // per-tupdate, on qdelay trend
inline constexpr double kPieMaxBurstS = 0.15;
inline constexpr double kCoDelDefaultTargetS = 0.005;
inline constexpr double kCoDelDefaultIntervalS = 0.1;
inline constexpr int kFqPieDefaultFlows = 64;
inline constexpr int kFqPieMaxFlows = 4096;
// Sanity ceilings for spec-supplied timescales (milliseconds).
inline constexpr double kQdiscMaxTargetMs = 10'000.0;
inline constexpr double kQdiscMaxIntervalMs = 60'000.0;

// Parsed, validated qdisc spec — the DMP_QDISC grammar:
//   droptail | pie[:target_ms[,tupdate_ms]] | fq_pie[:flows] |
//   codel[:target_ms[,interval_ms]]
struct QdiscSpec {
  enum class Kind : std::uint8_t { kDropTail, kPie, kFqPie, kCoDel };
  Kind kind = Kind::kDropTail;
  double target_s = 0.0;    // pie/codel qdelay target (0 = kind default)
  double interval_s = 0.0;  // pie tupdate / codel interval (0 = default)
  int flows = 0;            // fq_pie bucket count (0 = default)
  std::string text = "droptail";  // canonical spec string
  // Per-link RNG root for probabilistic early drops (PIE / FQ-PIE); the
  // session derives it from the run seed (seed_domain kind 18) per path.
  // Deterministic disciplines ignore it.
  std::uint64_t seed = 0;

  // Throws std::invalid_argument naming the bad token and the accepted set.
  static QdiscSpec parse(const std::string& spec);

  bool droptail() const { return kind == Kind::kDropTail; }
  // Kind name for report fields and artifact suffixes.
  const char* kind_name() const;
};

// The accepted-spec set, for error messages and option docs.
const char* qdisc_spec_grammar();

// Builds the discipline for `spec` with the link's buffer limit in packets
// (0 = unbounded, matching LinkConfig::buffer_packets).
std::unique_ptr<QueueDiscipline> make_queue_discipline(
    const QdiscSpec& spec, std::size_t buffer_packets);

}  // namespace dmp
