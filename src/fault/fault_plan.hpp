// Deterministic fault schedules: the paper's robustness claim (Sections
// 5.3, 7 — DMP shifts load to surviving paths while single-path streaming
// stalls) can only be exercised if links can fail on cue.  A FaultPlan is
// a list of timed events parsed from a compact spec string,
//
//   DMP_FAULTS="3.0 link_down path1; 8.0 link_up path1"
//
// replayed by a FaultInjector (fault_injector.hpp) against named paths.
// Event times are seconds relative to the video epoch (generation start),
// so the same plan means the same thing at any warmup length.
//
// Grammar (docs/FAULT_INJECTION.md has the full semantics):
//
//   plan   := event (';' event)*
//   event  := time kind target arg*
//   kind   := link_down | link_up | burst_loss | rescale | conn_reset
//   target := path<k>          (0-based path index)
//
//   burst_loss takes one argument, the number of packets to drop;
//   rescale takes bw=<factor> and/or delay=<factor> (relative to the
//   path's configured values); link_down/link_up/conn_reset take none.
//
// Parsing is strict — an unknown kind, a target that is not path<k>, a
// malformed number, a missing argument all throw std::invalid_argument
// naming the offending event — because a silently-ignored fault would
// turn a robustness experiment into a no-fault control without anyone
// noticing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dmp::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown = 0,   // drop arrivals, freeze the queue, stop dequeueing
  kLinkUp = 1,     // restore the link; frozen queue resumes draining
  kBurstLoss = 2,  // drop the next `count` packets arriving at the path
  kRescale = 3,    // multiply bandwidth / propagation delay by factors
  kConnReset = 4,  // inet layer: force-close the path's TCP connection
};

std::string_view fault_kind_name(FaultKind kind);

struct FaultEvent {
  double t_s = 0.0;  // seconds relative to the video epoch
  FaultKind kind = FaultKind::kLinkDown;
  std::string target;             // path name, e.g. "path1"
  std::uint64_t count = 0;        // kBurstLoss: packets to drop
  double bw_factor = 1.0;         // kRescale: relative to configured values
  double delay_factor = 1.0;

  // Canonical single-event spec (reparses to an equal event).
  std::string to_string() const;
};

struct FaultPlan {
  // Stably sorted by time: simultaneous events keep their spec order.
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }

  // Parses a spec string; whitespace-insensitive between tokens, empty
  // (or all-whitespace) spec yields an empty plan.  Throws
  // std::invalid_argument on any malformed event.
  static FaultPlan parse(const std::string& spec);

  // Canonical spec string ("; "-joined events in time order);
  // parse(to_string()) round-trips.
  std::string to_string() const;
};

// Extracts k from a "path<k>" target; returns false (leaving *index
// untouched) for any other shape.  Used by consumers that map targets to
// dense path arrays (session harness, inet server).
bool parse_path_index(const std::string& target, std::size_t* index);

}  // namespace dmp::fault
