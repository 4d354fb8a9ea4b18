// trace_query: offline analysis of run artifacts — flight-recorder traces,
// telemetry sketches, and the model-vs-measurement gates over reports.
//
//   trace_query summary <trace.jsonl> [--tau=SECONDS]
//       meta, arrival totals, late fraction and the deadline-miss cause
//       breakdown at startup delay tau (default 4 s)
//   trace_query packet <trace.jsonl> <number>
//       one packet's full lifecycle timeline, station by station
//   trace_query paths <trace.jsonl>
//       per-path delivery counts, drops/retransmissions/RTOs and
//       bottleneck-queue wait percentiles
//   trace_query rtx <trace.jsonl>
//       every packet that needed more than one transmission
//   trace_query causes <trace.jsonl> [--tau=SECONDS] [--limit=N]
//       the late packets themselves with their dominant cause
//   trace_query timeline <trace.jsonl> [--telemetry=CSV] [--out=FILE]
//       [--max-packets=N]
//       Chrome trace-event JSON (Perfetto-loadable) to FILE or stdout
//   trace_query percentiles <sketches.jsonl> [--q=0.5,0.95,0.99]
//       quantiles from a run's `*_sketches.jsonl` telemetry artifact
//   trace_query diff <left> <right> [--abs-tol=X] [--rel-tol=X]
//       [--ignore=PATH,...] [--max-print=N] [--quiet]
//       structural comparison of two JSON reports (BENCH_*.json, obs
//       *_report.json, DIVERGENCE_*.json) or CSV tables, format sniffed
//       from the first non-space byte.  Every field is classified
//       identical / within-tolerance / diverged / only-left / only-right /
//       type-mismatch; default tolerance is zero, and --ignore drops dotted
//       path prefixes, so a thread-invariance gate is one line:
//         trace_query diff t1/BENCH_fig4.json t8/BENCH_fig4.json
//             --ignore=timing
//   trace_query slo <spec.slo> <report.json> [more-reports.json...]
//       judge a declarative SLO spec; each rule's dotted path is resolved
//       against the documents in order and the first containing the field
//       is judged.  A field found in no document is a violation (a gate
//       must not silently pass by pointing at nothing).  Benches run the
//       same engine when DMP_SLO is set.
//   trace_query divergence <report.json> [--json=OUT] [--fail-on-divergence]
//       a run's model-vs-simulation divergence sections as a table, from a
//       BENCH_*.json ({"report": {"divergence": [...]}}) or a standalone
//       DIVERGENCE_*.json ({"divergence": [...]}); --json re-emits them as
//       a standalone artifact
//
// Exit status:
//   trace commands (summary .. percentiles): 0 success, 1 bad usage,
//       2 malformed trace or sketch file
//   diff: 0 clean (identical or within tolerance), 1 diverged,
//       2 unreadable/malformed input or bad usage
//   slo: 0 all rules pass, 1 violations, 2 unreadable/malformed spec or
//       report
//   divergence: 0 success, 1 when --fail-on-divergence is given and any
//       point diverged, 2 unreadable/malformed input or no divergence
//       section
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "exp/compare/report_diff.hpp"
#include "exp/compare/slo.hpp"
#include "obs/telemetry/sketch.hpp"
#include "obs/telemetry/timeline.hpp"
#include "obs/trace_analyzer.hpp"

namespace {

using dmp::exp::DiffClass;
using dmp::exp::DiffOptions;
using dmp::exp::DiffResult;
using dmp::exp::JsonValue;
using dmp::obs::AttributionReport;
using dmp::obs::FlightRecorder;
using dmp::obs::LateCause;
using dmp::obs::late_cause_name;
using dmp::obs::PacketTimeline;
using dmp::obs::rtx_reason_name;
using dmp::obs::TraceAnalyzer;

// Prints the usage text and returns `code`, the calling command's
// bad-usage exit status.
int usage(int code) {
  std::fprintf(
      stderr,
      "usage: trace_query <command> <file>... [args]\n"
      "  summary <trace> [--tau=S]          late fraction + cause breakdown\n"
      "  packet  <trace> <number>           one packet's timeline\n"
      "  paths   <trace>                    per-path stats\n"
      "  rtx     <trace>                    retransmitted packets\n"
      "  causes  <trace> [--tau=S] [--limit=N]  late packets with causes\n"
      "  timeline <trace> [--telemetry=CSV] [--out=FILE] [--max-packets=N]\n"
      "                                     Perfetto trace-event JSON\n"
      "  percentiles <sketches.jsonl> [--q=0.5,0.95,0.99]\n"
      "                                     sketch quantiles\n"
      "  diff <left> <right> [--abs-tol=X] [--rel-tol=X]\n"
      "       [--ignore=PATH,...] [--max-print=N] [--quiet]\n"
      "                                     compare JSON reports or CSV "
      "tables\n"
      "  slo <spec.slo> <report.json> [more...]  judge reports against a "
      "spec\n"
      "  divergence <report.json> [--json=OUT] [--fail-on-divergence]\n"
      "                                     model-vs-simulation divergence\n"
      "exit: trace commands 1 bad usage, 2 bad trace; diff/slo/divergence\n"
      "      1 diverged or violated, 2 bad input\n");
  return code;
}

// A malformed numeric flag value or argument; each command reports it with
// its own prefix and bad-usage exit status.
struct BadFlag : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// All of `text` as a T (an integer or a double); false on anything else,
// including an empty string or trailing bytes.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

// The `--name=value` and bare `--name` flags that follow a command's
// positional arguments (argv[first..]).
class Flags {
 public:
  Flags(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), first_(first) {}

  const char* value(const char* name) const {
    const std::size_t len = std::strlen(name);
    for (int i = first_; i < argc_; ++i) {
      if (std::strncmp(argv_[i], name, len) == 0 && argv_[i][len] == '=') {
        return argv_[i] + len + 1;
      }
    }
    return nullptr;
  }

  bool has(const char* name) const {
    for (int i = first_; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }

  // The whole value as a T (an integer or a double); `fallback` when the
  // flag is absent.
  template <typename T>
  T number(const char* name, T fallback) const {
    const char* v = value(name);
    if (v == nullptr) return fallback;
    T x{};
    if (!parse_whole(v, x)) {
      throw BadFlag{std::string(name) + "=" + v + " is not " +
                    (std::is_integral_v<T> ? "an integer" : "a number")};
    }
    return x;
  }

 private:
  int argc_;
  char** argv_;
  int first_;
};

// ---------------------------------------------------------------- traces

// Station timestamps are absolute recorder-clock ns; print them relative
// to the generation epoch so they read as stream time.
double rel_s(const TraceAnalyzer& az, std::int64_t t_ns) {
  return static_cast<double>(t_ns - az.epoch_ns()) * 1e-9;
}

void print_attribution(const AttributionReport& rep, double tau_s) {
  std::printf("tau            %.3f s\n", tau_s);
  std::printf("total packets  %lld\n",
              static_cast<long long>(rep.total_packets));
  std::printf("arrived        %lld\n", static_cast<long long>(rep.arrived));
  std::printf("late           %lld  (fraction %.6g)\n",
              static_cast<long long>(rep.late), rep.late_fraction());
  std::printf("late by dominant cause:\n");
  for (std::size_t c = 0; c < dmp::obs::kNumLateCauses; ++c) {
    if (rep.by_cause[c] == 0) continue;
    std::printf("  %-15s %lld\n",
                std::string(late_cause_name(static_cast<LateCause>(c))).c_str(),
                static_cast<long long>(rep.by_cause[c]));
  }
}

int cmd_summary(const TraceAnalyzer& az, double tau_s) {
  std::printf("mu             %.6g pkts/s\n", az.mu_pps());
  std::printf("epoch          %lld ns\n", static_cast<long long>(az.epoch_ns()));
  std::printf("packets traced %zu\n", az.timelines().size());
  print_attribution(az.attribute(tau_s), tau_s);
  return 0;
}

int cmd_packet(const TraceAnalyzer& az, std::int64_t number) {
  const PacketTimeline* tl = az.timeline(number);
  if (!tl) {
    std::fprintf(stderr, "packet %lld not in trace\n",
                 static_cast<long long>(number));
    return 1;
  }
  std::printf("packet %lld  path %d  transmissions %u  drops %u\n",
              static_cast<long long>(tl->packet), tl->path, tl->transmissions,
              tl->drops);
  auto station = [&](const char* name, std::int64_t t_ns) {
    if (t_ns < 0) {
      std::printf("  %-12s -\n", name);
    } else {
      std::printf("  %-12s %.9f s\n", name, rel_s(az, t_ns));
    }
  };
  station("generate", tl->gen_ns);
  station("pull", tl->pull_ns);
  station("tcp_enqueue", tl->enqueue_ns);
  for (const auto& send : tl->sends) {
    std::printf("  %-12s %.9f s  seq %lld attempt %u%s%s  cwnd %.6g "
                "ssthresh %.6g\n",
                "tcp_send", rel_s(az, send.t_ns),
                static_cast<long long>(send.seq), send.attempt,
                send.reason == dmp::obs::RtxReason::kNone ? "" : " ",
                send.reason == dmp::obs::RtxReason::kNone
                    ? ""
                    : std::string(rtx_reason_name(send.reason)).c_str(),
                send.cwnd, send.ssthresh);
  }
  for (const auto& hop : tl->hops) {
    if (hop.dropped) {
      std::printf("  %-12s %.9f s  hop %d  DROPPED\n", "link",
                  rel_s(az, hop.enqueue_ns), hop.hop);
    } else if (hop.dequeue_ns >= 0) {
      std::printf("  %-12s %.9f s  hop %d  queued %.9f s\n", "link",
                  rel_s(az, hop.enqueue_ns), hop.hop,
                  static_cast<double>(hop.dequeue_ns - hop.enqueue_ns) * 1e-9);
    } else {
      std::printf("  %-12s %.9f s  hop %d  (still queued at end)\n", "link",
                  rel_s(az, hop.enqueue_ns), hop.hop);
    }
  }
  station("sink_rx", tl->sink_rx_ns);
  station("deliver", tl->deliver_ns);
  station("arrive", tl->arrive_ns);
  std::printf("  waits: pre-tx %.9f s  link-queue %.9f s  reorder %.9f s\n",
              static_cast<double>(tl->pre_tx_wait_ns()) * 1e-9,
              static_cast<double>(tl->link_queue_wait_ns()) * 1e-9,
              static_cast<double>(tl->reorder_wait_ns()) * 1e-9);
  return 0;
}

int cmd_paths(const TraceAnalyzer& az) {
  std::printf("%5s %10s %7s %7s %6s %12s %12s %12s %12s\n", "path",
              "delivered", "drops", "rtx", "rtos", "qwait_p50_s",
              "qwait_p90_s", "qwait_p99_s", "qwait_max_s");
  for (const auto& s : az.path_stats()) {
    std::printf("%5d %10llu %7llu %7llu %6llu %12.6g %12.6g %12.6g %12.6g\n",
                s.path, static_cast<unsigned long long>(s.packets_delivered),
                static_cast<unsigned long long>(s.drops),
                static_cast<unsigned long long>(s.retransmissions),
                static_cast<unsigned long long>(s.rtos), s.queue_wait_p50_s,
                s.queue_wait_p90_s, s.queue_wait_p99_s, s.queue_wait_max_s);
  }
  return 0;
}

int cmd_rtx(const TraceAnalyzer& az) {
  const auto rtx = az.retransmitted_packets();
  std::printf("%llu retransmitted packet(s)\n",
              static_cast<unsigned long long>(rtx.size()));
  for (const PacketTimeline* tl : rtx) {
    std::printf("packet %lld  path %d  attempts %u  drops %u  reasons:",
                static_cast<long long>(tl->packet), tl->path,
                tl->transmissions, tl->drops);
    for (const auto& send : tl->sends) {
      if (send.attempt <= 1) continue;
      std::printf(" %s@%.6fs",
                  std::string(rtx_reason_name(send.reason)).c_str(),
                  rel_s(az, send.t_ns));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_causes(const TraceAnalyzer& az, double tau_s, std::int64_t limit) {
  const auto rep = az.attribute(tau_s);
  print_attribution(rep, tau_s);
  std::printf("%8s %12s %12s %s\n", "packet", "deadline_s", "arrived_s",
              "cause");
  std::int64_t shown = 0;
  for (const auto& v : rep.verdicts) {
    if (limit >= 0 && shown++ >= limit) {
      std::printf("... (%zu total; raise --limit)\n", rep.verdicts.size());
      break;
    }
    std::printf("%8lld %12.6f %12.6f %s\n", static_cast<long long>(v.packet),
                static_cast<double>(v.deadline_rel_ns) * 1e-9,
                static_cast<double>(v.arrive_rel_ns) * 1e-9,
                std::string(late_cause_name(v.cause)).c_str());
  }
  return 0;
}

int cmd_timeline(const TraceAnalyzer& az, const Flags& flags) {
  dmp::obs::TimelineOptions options;
  if (const char* csv = flags.value("--telemetry")) {
    options.telemetry_csv = csv;
  }
  options.max_packets = flags.number("--max-packets", options.max_packets);
  if (const char* out = flags.value("--out")) {
    if (!dmp::obs::write_chrome_trace(az, out, options)) {
      std::fprintf(stderr, "error: failed to write %s\n", out);
      return 2;
    }
    std::printf("wrote %s\n", out);
    return 0;
  }
  const std::string json = dmp::obs::chrome_trace_json(az, options);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

// `percentiles` reads a `*_sketches.jsonl` artifact, not a flight trace —
// dispatched before the trace load.
int cmd_percentiles(const char* path, const Flags& flags) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return 2;
  }
  std::vector<double> qs{0.5, 0.95, 0.99};
  if (const char* spec = flags.value("--q")) {
    qs.clear();
    std::string_view rest = spec;
    for (;;) {
      const auto comma = rest.find(',');
      double q = 0.0;
      if (!parse_whole(rest.substr(0, comma), q)) {
        throw BadFlag{std::string("--q=") + spec + " is not a number"};
      }
      qs.push_back(q);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  std::printf("%-28s %10s", "sketch", "count");
  for (double q : qs) {
    char label[16];
    std::snprintf(label, sizeof label, "p%g", q);
    std::printf(" %11s", label);
  }
  std::printf("\n");
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string name = "?";
    const auto pos = line.find("\"name\":\"");
    if (pos != std::string::npos) {
      const auto start = pos + 8;
      const auto end = line.find('"', start);
      if (end != std::string::npos) name = line.substr(start, end - start);
    }
    try {
      const auto sketch = dmp::obs::QuantileSketch::from_json(line);
      std::printf("%-28s %10llu", name.c_str(),
                  static_cast<unsigned long long>(sketch.count()));
      for (double q : qs) {
        if (sketch.count() == 0) {
          std::printf(" %11s", "-");
        } else {
          std::printf(" %11.6g", sketch.quantile(q));
        }
      }
      std::printf("\n");
      any = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad sketch line: %s\n", e.what());
      return 2;
    }
  }
  if (!any) {
    std::fprintf(stderr,
                 "error: no sketches in %s (empty or truncated artifact?)\n",
                 path);
    return 2;
  }
  return 0;
}

int run_trace_command(const std::string& cmd, int argc, char** argv) {
  const Flags flags(argc, argv, 3);
  if (cmd == "percentiles") return cmd_percentiles(argv[2], flags);
  FlightRecorder recorder;
  try {
    recorder = dmp::obs::read_flight_trace_file(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // A trace a recorder actually wrote always contains events; an empty
  // load means the input is not a trace (empty file, or one truncated
  // before any event survived) and an empty summary would be misleading.
  if (recorder.events().empty()) {
    std::fprintf(stderr,
                 "error: %s contains no flight-recorder events (empty or "
                 "truncated trace?)\n",
                 argv[2]);
    return 2;
  }
  const TraceAnalyzer az(recorder);
  if (cmd == "summary") return cmd_summary(az, flags.number("--tau", 4.0));
  if (cmd == "packet") {
    if (argc < 4) return usage(1);
    std::int64_t number = 0;
    if (!parse_whole(argv[3], number)) {
      throw BadFlag{std::string("packet number ") + argv[3] +
                    " is not an integer"};
    }
    return cmd_packet(az, number);
  }
  if (cmd == "paths") return cmd_paths(az);
  if (cmd == "rtx") return cmd_rtx(az);
  if (cmd == "timeline") return cmd_timeline(az, flags);
  if (cmd == "causes") {
    return cmd_causes(az, flags.number("--tau", 4.0),
                      flags.number("--limit", std::int64_t{50}));
  }
  return usage(1);
}

// --------------------------------------------------------------- reports
//
// Their error messages keep the `run_diff: error:`, `slo_check:` and
// `divergence_report:` prefixes that CI logs and docs match on.

// JSON document or CSV table, decided by the first non-space byte.
JsonValue load_artifact(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error{"cannot open " + path};
  char c = '\0';
  while (probe.get(c) && (c == ' ' || c == '\t' || c == '\n' || c == '\r')) {
  }
  if (!probe) throw std::runtime_error{path + " is empty"};
  if (c == '{' || c == '[') return dmp::exp::parse_json_file(path);
  return dmp::exp::csv_file_to_json(path);
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4) return usage(2);
  const char* left_path = argv[2];
  const char* right_path = argv[3];
  const Flags flags(argc, argv, 4);
  DiffOptions options;
  long long max_print = 40;
  JsonValue left, right;
  try {
    options.abs_tol = flags.number("--abs-tol", options.abs_tol);
    options.rel_tol = flags.number("--rel-tol", options.rel_tol);
    max_print = flags.number("--max-print", max_print);
    left = load_artifact(left_path);
    right = load_artifact(right_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_diff: error: %s\n", e.what());
    return 2;
  }
  if (const char* v = flags.value("--ignore")) {
    std::string prefix;
    for (const char* p = v;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!prefix.empty()) options.ignore.push_back(prefix);
        prefix.clear();
        if (*p == '\0') break;
      } else {
        prefix += *p;
      }
    }
  }

  const DiffResult result = dmp::exp::diff_reports(left, right, options);

  if (!flags.has("--quiet")) {
    long long printed = 0;
    for (const auto& d : result.diffs) {
      if (printed++ >= max_print) {
        std::printf("... (%zu entries total; raise --max-print)\n",
                    result.diffs.size());
        break;
      }
      std::printf("%-13s %s: %s -> %s", diff_class_name(d.cls).data(),
                  d.path.c_str(), d.left.empty() ? "-" : d.left.c_str(),
                  d.right.empty() ? "-" : d.right.c_str());
      if (d.cls == DiffClass::kDiverged ||
          d.cls == DiffClass::kWithinTolerance) {
        std::printf("  (|delta| %.6g)", d.abs_delta);
      }
      std::printf("\n");
    }
  }
  std::printf("%zu field(s) compared: %zu identical, %zu within tolerance, "
              "%zu diverged\n",
              result.fields_compared, result.identical,
              result.within_tolerance, result.diverged());
  if (result.clean()) {
    std::printf("CLEAN: %s == %s%s\n", left_path, right_path,
                result.within_tolerance > 0 ? " (within tolerance)" : "");
    return 0;
  }
  std::printf("DIVERGED: %s != %s\n", left_path, right_path);
  return 1;
}

int cmd_slo(int argc, char** argv) {
  if (argc < 4) return usage(2);
  dmp::exp::SloSpec spec;
  std::vector<JsonValue> docs;
  try {
    spec = dmp::exp::SloSpec::parse_file(argv[2]);
    for (int i = 3; i < argc; ++i) {
      docs.push_back(dmp::exp::parse_json_file(argv[i]));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slo_check: %s\n", e.what());
    return 2;
  }
  std::vector<const JsonValue*> doc_ptrs;
  for (const auto& d : docs) doc_ptrs.push_back(&d);

  const auto report = dmp::exp::evaluate_slo(spec, doc_ptrs);
  std::printf("%s: %zu rule(s) against %zu document(s)\n", argv[2],
              spec.rules.size(), docs.size());
  for (const auto& r : report.results) {
    std::printf("  %s\n", r.message.c_str());
  }
  if (report.ok()) {
    std::printf("SLO OK\n");
    return 0;
  }
  std::fprintf(stderr, "SLO FAIL: %zu violation(s)\n", report.violations);
  return 1;
}

double member_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : 0.0;
}

std::string member_text(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? v->text : std::string{};
}

int cmd_divergence(int argc, char** argv) {
  if (argc < 3) return usage(2);
  const char* path = argv[2];
  const Flags flags(argc, argv, 3);
  JsonValue doc;
  try {
    doc = dmp::exp::parse_json_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "divergence_report: %s\n", e.what());
    return 2;
  }
  const JsonValue* divergence = doc.find("divergence");
  if (divergence == nullptr) {
    if (const JsonValue* report = doc.find("report")) {
      divergence = report->find("divergence");
    }
  }
  if (divergence == nullptr || !divergence->is_array()) {
    std::fprintf(stderr,
                 "divergence_report: %s has no divergence section (run the "
                 "figure bench from this revision?)\n",
                 path);
    return 2;
  }
  if (divergence->array.empty()) {
    std::fprintf(stderr, "divergence_report: %s: divergence section is empty\n",
                 path);
    return 2;
  }

  std::size_t total_diverged = 0;
  for (const auto& series : divergence->array) {
    std::printf("series %s  (%s vs model, x = %s)\n",
                member_text(series, "name").c_str(),
                member_text(series, "metric").c_str(),
                member_text(series, "x_label").c_str());
    std::printf("%-10s %10s %14s %14s %12s %12s  %s\n", "setting", "x",
                "predicted", "measured", "ci_half", "residual", "ok");
    if (const JsonValue* points = series.find("points")) {
      for (const auto& p : points->array) {
        const JsonValue* ok = p.find("ok");
        std::printf("%-10s %10.4g %14.6g %14.6g %12.4g %12.4g  %s\n",
                    member_text(p, "setting").c_str(), member_number(p, "x"),
                    member_number(p, "predicted"), member_number(p, "measured"),
                    member_number(p, "ci_half"), member_number(p, "residual"),
                    (ok != nullptr && ok->boolean) ? "yes" : "NO");
      }
    }
    if (const JsonValue* stats = series.find("stats")) {
      const auto diverged =
          static_cast<std::size_t>(member_number(*stats, "diverged"));
      total_diverged += diverged;
      std::printf("  stats: n=%g diverged=%zu mean=%.6g rms=%.6g max|r|=%.6g "
                  "worst=%s@%g\n\n",
                  member_number(*stats, "count"), diverged,
                  member_number(*stats, "mean_residual"),
                  member_number(*stats, "rms_residual"),
                  member_number(*stats, "max_abs_residual"),
                  member_text(*stats, "worst_setting").c_str(),
                  member_number(*stats, "worst_x"));
    }
  }

  if (const char* out_path = flags.value("--json")) {
    std::ofstream out(out_path);
    JsonValue standalone;
    standalone.kind = JsonValue::Kind::kObject;
    standalone.object.emplace_back("divergence", *divergence);
    if (!out || !(out << standalone.to_json() << "\n")) {
      std::fprintf(stderr, "divergence_report: cannot write %s\n", out_path);
      return 2;
    }
    std::printf("wrote %s\n", out_path);
  }
  if (total_diverged > 0) {
    std::printf("%zu diverged point(s)\n", total_diverged);
    if (flags.has("--fail-on-divergence")) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  // The report commands read no flight trace; they keep the exit codes
  // CI gates on (1 diverged or violated, 2 bad input or usage).
  if (cmd == "diff") return cmd_diff(argc, argv);
  if (cmd == "slo") return cmd_slo(argc, argv);
  if (cmd == "divergence") return cmd_divergence(argc, argv);
  if (argc < 3) return usage(1);
  try {
    return run_trace_command(cmd, argc, argv);
  } catch (const BadFlag& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
