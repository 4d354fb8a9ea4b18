#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace dmp::fault {

namespace {

[[noreturn]] void bad(const std::string& event_text, const std::string& why) {
  throw std::invalid_argument{"fault plan: bad event '" + event_text +
                              "': " + why};
}

std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

double parse_f64(const std::string& event_text, const std::string& text,
                 const char* what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    bad(event_text, std::string(what) + " '" + text + "' is not a number");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& event_text, const std::string& text,
                        const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad(event_text,
        std::string(what) + " '" + text + "' is not a non-negative integer");
  }
  return v;
}

std::string format_factor(double v) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 12);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("nan");
}

FaultEvent parse_event(const std::string& event_text) {
  const auto tokens = split_tokens(event_text);
  if (tokens.size() < 3) {
    bad(event_text, "expected '<time> <kind> <target> ...'");
  }
  FaultEvent e;
  e.t_s = parse_f64(event_text, tokens[0], "time");
  if (e.t_s < 0.0) bad(event_text, "time must be >= 0");
  const std::string& kind = tokens[1];
  e.target = tokens[2];
  if (kind == "link_down" || kind == "link_up" || kind == "conn_reset") {
    if (tokens.size() != 3) bad(event_text, kind + " takes no arguments");
    e.kind = kind == "link_down"
                 ? FaultKind::kLinkDown
                 : (kind == "link_up" ? FaultKind::kLinkUp
                                      : FaultKind::kConnReset);
  } else if (kind == "burst_loss") {
    if (tokens.size() != 4) bad(event_text, "burst_loss takes one count");
    e.kind = FaultKind::kBurstLoss;
    e.count = parse_u64(event_text, tokens[3], "count");
    if (e.count == 0) bad(event_text, "burst_loss count must be >= 1");
  } else if (kind == "rescale") {
    if (tokens.size() < 4) {
      bad(event_text, "rescale needs bw=<factor> and/or delay=<factor>");
    }
    e.kind = FaultKind::kRescale;
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      const std::string& arg = tokens[i];
      double* slot = nullptr;
      std::string value;
      if (arg.rfind("bw=", 0) == 0) {
        slot = &e.bw_factor;
        value = arg.substr(3);
      } else if (arg.rfind("delay=", 0) == 0) {
        slot = &e.delay_factor;
        value = arg.substr(6);
      } else {
        bad(event_text, "unknown rescale argument '" + arg + "'");
      }
      *slot = parse_f64(event_text, value, "factor");
      if (!(*slot > 0.0)) bad(event_text, "factors must be > 0");
    }
  } else {
    bad(event_text, "unknown kind '" + kind + "'");
  }
  // Every consumer names its paths path0..path<K-1>; whether the index
  // exists is known only once the session's paths are.
  std::size_t index = 0;
  if (!parse_path_index(e.target, &index)) {
    bad(event_text, "target '" + e.target + "' is not path<k>");
  }
  return e;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kBurstLoss: return "burst_loss";
    case FaultKind::kRescale: return "rescale";
    case FaultKind::kConnReset: return "conn_reset";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::string out = format_factor(t_s);
  out += ' ';
  out += fault_kind_name(kind);
  out += ' ';
  out += target;
  if (kind == FaultKind::kBurstLoss) {
    out += ' ';
    out += std::to_string(count);
  } else if (kind == FaultKind::kRescale) {
    out += " bw=" + format_factor(bw_factor);
    out += " delay=" + format_factor(delay_factor);
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string event_text = spec.substr(begin, end - begin);
    const bool blank = std::all_of(event_text.begin(), event_text.end(),
                                   [](unsigned char c) {
                                     return std::isspace(c) != 0;
                                   });
    if (!blank) plan.events.push_back(parse_event(event_text));
    begin = end + 1;
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t_s < b.t_s;
                   });
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& e : events) {
    if (!out.empty()) out += "; ";
    out += e.to_string();
  }
  return out;
}

bool parse_path_index(const std::string& target, std::size_t* index) {
  if (target.rfind("path", 0) != 0 || target.size() == 4) return false;
  const char* begin = target.data() + 4;
  const char* end = target.data() + target.size();
  std::size_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) return false;
  *index = v;
  return true;
}

}  // namespace dmp::fault
