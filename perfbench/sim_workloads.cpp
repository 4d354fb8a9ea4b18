// Packet-level workloads: sim_sweep (the fig4/fig5/Table-3 validation grid)
// and stream_mix (video-heavy sessions across schedulers, schemes, faults
// and telemetry).
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "apps/background.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/profiler.hpp"
#include "stream/session.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dmp::BackloggedProbe;
using dmp::EventCategory;
using dmp::PathConfig;
using dmp::SchedProfile;
using dmp::SessionConfig;
using dmp::SessionResult;
using dmp::StreamScheme;

// Root of every catalog seed.  Fixed, so the catalog (and the reference
// digests recorded for it) never depends on --seed; --seed only chooses
// which catalog operations a batch runs.
constexpr std::uint64_t kCatalogRoot = 2007;

// The fig4 tau grid (bench/fig_validation.hpp curve_taus).
constexpr double kTauGrid[] = {3, 4, 5, 6, 7, 8, 9, 10, 11};

constexpr EventCategory kProfiledCategories[] = {
    EventCategory::kLinkTx,  EventCategory::kLinkDelivery,
    EventCategory::kTcpSend, EventCategory::kTcpTimer,
    EventCategory::kSource,  EventCategory::kOther};

struct SessionOp {
  std::string key;
  std::string setting;  // catalog setting the op belongs to
  bool probe = false;
  SessionConfig config;  // sessions (config.seed is the catalog seed)
  PathConfig probe_path;
  std::size_t probe_flows = 1;
  std::uint64_t probe_seed = 0;
  double probe_duration_s = 0.0;
};

struct OpResult {
  double wall_s = 0.0;
  std::string error;
  std::string canonical;
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t data_sent = 0;  // first transmissions, all copies
  std::uint64_t retransmits = 0;
  std::uint64_t fault_events = 0;
  bool redundant = false;
  SchedProfile profile{};
  double trace_analysis_s = 0.0;
  SessionResult result;  // kept for exp.report_ms
};

std::string canonical_session(const SessionResult& r, double* analysis_s) {
  std::string out = "ev=" + std::to_string(r.events_executed) +
                    " gen=" + std::to_string(r.packets_generated) +
                    " arr=" + std::to_string(r.trace.arrivals());
  for (const auto& path : r.paths) {
    out += " p=" + num(path.loss_rate) + "," + num(path.rtt_s);
  }
  const std::int64_t start = now_ns();
  out += " f=";
  for (double tau : kTauGrid) {
    out += num(r.trace.late_fraction_playback_order(tau, r.packets_generated)) +
           ",";
  }
  *analysis_s = seconds_since(start);
  out += " dup=" + std::to_string(r.duplicates_sent) +
         " par=" + std::to_string(r.parity_sent) +
         " fault=" + std::to_string(r.fault_events_fired);
  return out;
}

std::string canonical_probe(const std::vector<BackloggedProbe>& probes) {
  std::string out;
  for (const auto& p : probes) {
    out += "p=" + num(p.loss_rate) + " r=" + num(p.rtt_s) +
           " to=" + num(p.to_ratio) + " x=" + num(p.throughput_pps) + ";";
  }
  return out;
}

SessionConfig without_background(SessionConfig config) {
  for (auto& path : config.path_configs) {
    path.ftp_flows = 0;
    path.http_flows = 0;
  }
  return config;
}

// Runs one operation.  `traced` adds the DES event-count profile (a byte
// store per event; wall timing per category is a separate pass).
OpResult run_op(const SessionOp& op, bool traced, Tracer* tracer) {
  OpResult out;
  const std::int64_t start = now_ns();
  if (op.probe) {
    std::vector<BackloggedProbe> probes;
    {
      Span span(tracer, "measure_backlogged_paths", "stream");
      probes = dmp::measure_backlogged_paths(op.probe_path, op.probe_flows,
                                             op.probe_seed, op.probe_duration_s);
    }
    out.wall_s = seconds_since(start);
    out.canonical = canonical_probe(probes);
    return out;
  }
  SessionConfig config = op.config;
  config.profile = traced;
  {
    Span span(tracer, "run_session", "stream");
    out.result = dmp::run_session(config);
  }
  out.wall_s = seconds_since(start);
  const SessionResult& r = out.result;
  {
    Span span(tracer, "StreamTrace.late_fraction", "stream");
    out.canonical = canonical_session(r, &out.trace_analysis_s);
  }
  out.events = r.events_executed;
  out.arrivals = r.trace.arrivals();
  for (const auto& path : r.paths) {
    out.data_sent += path.tcp.data_packets_sent;
    out.retransmits += path.tcp.retransmissions;
  }
  out.fault_events = r.fault_events_fired;
  out.redundant = config.scheduler == "redundant" ||
                  config.scheduler.rfind("parity-", 0) == 0;
  out.profile = r.profile;
  return out;
}

// Per-layer accumulators over one kind of batch (traced or untraced).
struct LayerAcc {
  std::size_t batches = 0;
  double makespan_s = 0.0;
  double busy_s = 0.0;
  double session_wall_s = 0.0;
  double probe_wall_s = 0.0;
  std::size_t probes = 0;
  std::uint64_t events = 0;
  std::uint64_t arrivals_redundant = 0, sent_redundant = 0;
  std::uint64_t data_sent = 0, retransmits = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t trace_entries = 0;
  double trace_analysis_s = 0.0;
  double report_s = 0.0;
  SchedProfile profile{};
};

class SessionWorkload : public Workload {
 public:
  SessionWorkload(std::string name, bool video_heavy)
      : name_(std::move(name)), video_heavy_(video_heavy) {
    build_catalog();
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    batch_.clear();
    dmp::Rng rng(seed);
    // Stratified draw: every group (setting, or probe point) contributes the
    // same number of operations, so batches from different seeds carry the
    // same mix and differ only in which seeded replications they run.
    for (const auto& group : groups_) {
      std::vector<std::size_t> members = group.members;
      for (std::size_t i = 0; i < group.draw; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.uniform_int(members.size() - i));
        std::swap(members[i], members[j]);
      }
      std::vector<std::size_t> picked(members.begin(),
                                      members.begin() + static_cast<long>(group.draw));
      std::sort(picked.begin(), picked.end());
      for (std::size_t idx : picked) batch_.push_back(idx);
    }
  }

  BatchOutcome run_batch(const RunContext& ctx) override {
    const bool traced = ctx.tracer != nullptr;
    BatchOutcome outcome;
    LayerAcc& acc = traced ? traced_ : untraced_;
    std::vector<std::pair<std::string, SessionResult>> report_inputs;
    const std::int64_t start = now_ns();
    {
      Span batch_span(ctx.tracer, "ExperimentRunner.run_ordered", "exp");
      const SpanContext parent = tls_span_context;
      dmp::exp::ExperimentRunner runner(ctx.threads);
      runner.run_ordered(
          batch_.size(),
          [&](std::size_t i) {
            const SessionOp& op = catalog_[batch_[i]];
            Span op_span(ctx.tracer, op.probe ? "probe" : "session", "exp",
                         SpanContext{parent.span, i + 1});
            try {
              return run_op(op, traced, ctx.tracer);
            } catch (const std::exception& e) {
              OpResult failed;
              failed.error = op.key + ": " + e.what();
              return failed;
            }
          },
          [&](std::size_t i, OpResult r) {
            const SessionOp& op = catalog_[batch_[i]];
            ++outcome.attempted;
            outcome.op_latency_s.push_back(r.wall_s);
            outcome.busy_s += r.wall_s;
            if (!r.error.empty()) {
              record_failure(&outcome, r.error);
              return;
            }
            check_output(ctx, op.key, r.canonical, &outcome);
            if (op.probe) {
              acc.probe_wall_s += r.wall_s;
              ++acc.probes;
              return;
            }
            acc.session_wall_s += r.wall_s;
            acc.events += r.events;
            acc.data_sent += r.data_sent;
            acc.retransmits += r.retransmits;
            acc.fault_events += r.fault_events;
            acc.trace_entries += r.arrivals;
            acc.trace_analysis_s += r.trace_analysis_s;
            if (r.redundant) {
              acc.arrivals_redundant += r.arrivals;
              acc.sent_redundant += r.data_sent;
            }
            for (std::size_t c = 0; c < dmp::kNumEventCategories; ++c) {
              acc.profile.by_category[c].executed +=
                  r.profile.by_category[c].executed;
              acc.profile.by_category[c].wall_ns +=
                  r.profile.by_category[c].wall_ns;
            }
            if (traced) report_inputs.emplace_back(op.setting, std::move(r.result));
          });
    }
    outcome.makespan_s = seconds_since(start);
    ++acc.batches;
    acc.makespan_s += outcome.makespan_s;
    acc.busy_s += outcome.busy_s;
    if (traced) acc.report_s += time_report(report_inputs, ctx.tracer);
    return outcome;
  }

  void layer_metrics(const RunContext& ctx, Metrics* out) override;

  std::string record() const override {
    std::string out = "workload " + name_ + " seed " + std::to_string(seed_) +
                      ": " + std::to_string(batch_.size()) + " operations\n";
    out += video_heavy_
               ? "  why: the same DES layers with video packets and ACKs "
                 "dominating; stream/fault/obs do the work\n"
               : "  why: where every validation figure spends its time; "
                 "background traffic dominates the events\n";
    for (std::size_t idx : batch_) {
      const SessionOp& op = catalog_[idx];
      out += "  " + op.key;
      if (!op.probe) {
        out += " seed=" + std::to_string(op.config.seed) +
               " mu=" + num(op.config.mu_pps) +
               " dur=" + num(op.config.duration_s);
      } else {
        out += " seed=" + std::to_string(op.probe_seed);
      }
      out += "\n";
    }
    return out;
  }

  void record_catalog(const RunContext& ctx) override {
    batch_.clear();
    for (std::size_t i = 0; i < catalog_.size(); ++i) batch_.push_back(i);
    run_batch(ctx);
  }

 private:
  struct Group {
    std::vector<std::size_t> members;  // catalog indexes
    std::size_t draw = 0;
  };

  void build_catalog();
  void add_group(std::vector<SessionOp> ops, std::size_t draw) {
    Group group;
    group.draw = draw;
    for (auto& op : ops) {
      group.members.push_back(catalog_.size());
      catalog_.push_back(std::move(op));
    }
    groups_.push_back(std::move(group));
  }

  // exp.report_ms: the runner's per-setting report over this batch's
  // sessions (its default metric set), serialized to canonical JSON.
  double time_report(
      const std::vector<std::pair<std::string, SessionResult>>& results,
      Tracer* tracer) const {
    if (results.empty()) return 0.0;
    const std::int64_t start = now_ns();
    Span span(tracer, "ExperimentReport.aggregate_json", "exp");
    dmp::exp::ExperimentReport report;
    report.experiment = name_;
    report.root_seed = seed_;
    report.replications = 1;
    for (const auto& [setting, res] : results) {
      if (report.settings.empty() || report.settings.back().name != setting) {
        report.settings.emplace_back();
        report.settings.back().name = setting;
      }
      auto& summary = report.settings.back();
      summary.failures.emplace_back();
      for (double tau : {4.0, 6.0, 8.0, 10.0}) {
        summary.add_metric(
            "f_tau" + std::to_string(static_cast<int>(tau)),
            res.trace.late_fraction_playback_order(tau, res.packets_generated));
      }
      for (std::size_t k = 0; k < res.paths.size(); ++k) {
        const std::string p = "path" + std::to_string(k);
        summary.add_metric(p + ".loss", res.paths[k].loss_rate);
        summary.add_metric(p + ".rtt_s", res.paths[k].rtt_s);
        summary.add_metric(p + ".share", res.paths[k].share);
      }
    }
    if (report.aggregate_json().empty()) {
      throw std::runtime_error("empty report JSON");
    }
    return seconds_since(start);
  }

  std::string name_;
  bool video_heavy_;
  std::uint64_t seed_ = 0;
  std::vector<SessionOp> catalog_;
  std::vector<Group> groups_;
  std::vector<std::size_t> batch_;  // catalog indexes, run order
  LayerAcc untraced_, traced_;
};

// --- sim_sweep: Table-1 validation settings + backlogged probes ---------
constexpr double kSweepDuration = 300.0;     // video seconds per session
constexpr std::size_t kSweepReps = 12;       // catalog replications / setting
constexpr std::size_t kSweepDraw = 8;        // drawn per setting per batch
constexpr double kProbeDuration = 400.0;     // backlogged-probe seconds
constexpr std::size_t kProbeVariants = 3;    // catalog seeds / probe point

// --- stream_mix: thinned background, raised mu --------------------------
constexpr double kMixDuration = 200.0;
constexpr double kMixMuPerPath = 150.0;
constexpr std::size_t kMixSeeds = 6;
constexpr std::size_t kMixDraw = 4;
const char* const kMixOutage = "30 link_down path1; 35 link_up path1";

void SessionWorkload::build_catalog() {
  if (!video_heavy_) {
    struct Setting {
      const char* name;
      int a, b;
      double mu;
      bool correlated;
    };
    // bench/bench_common.hpp: independent_settings() + correlated_settings().
    const Setting settings[] = {
        {"1-1", 1, 1, 50, false}, {"2-2", 2, 2, 50, false},
        {"3-3", 3, 3, 30, false}, {"4-4", 4, 4, 80, false},
        {"1-2", 1, 2, 50, false}, {"1-3", 1, 3, 40, false},
        {"2-3", 2, 3, 40, false}, {"3-4", 3, 4, 60, false},
        {"c1", 1, 1, 50, true},   {"c2", 2, 2, 50, true},
        {"c3", 3, 3, 30, true},   {"c4", 4, 4, 80, true},
    };
    // Probes first: they are the longest operations, and starting them
    // early keeps the pool's tail short.
    for (int cfg = 1; cfg <= 4; ++cfg) {
      for (std::size_t flows = 1; flows <= 2; ++flows) {
        std::vector<SessionOp> ops;
        const auto seeds = dmp::exp::probe_stream(
            kCatalogRoot, static_cast<std::uint64_t>(cfg) * 2 + flows);
        for (std::size_t v = 0; v < kProbeVariants; ++v) {
          SessionOp op;
          op.probe = true;
          op.setting = "probe" + std::to_string(cfg);
          op.key = "probe|cfg" + std::to_string(cfg) + "|flows" +
                   std::to_string(flows) + "|v" + std::to_string(v);
          op.probe_path = dmp::table1_config(cfg);
          op.probe_flows = flows;
          op.probe_seed = seeds.at(v);
          op.probe_duration_s = kProbeDuration;
          ops.push_back(std::move(op));
        }
        add_group(std::move(ops), 1);
      }
    }
    for (std::size_t s = 0; s < std::size(settings); ++s) {
      const Setting& st = settings[s];
      std::vector<SessionOp> ops;
      for (std::size_t r = 0; r < kSweepReps; ++r) {
        SessionOp op;
        op.setting = st.name;
        op.key = std::string("session|") + st.name + "|r" + std::to_string(r);
        SessionConfig& c = op.config;
        c.path_configs = {dmp::table1_config(st.a)};
        if (!st.correlated) c.path_configs.push_back(dmp::table1_config(st.b));
        c.correlated = st.correlated;
        c.num_flows = 2;
        c.mu_pps = st.mu;
        c.duration_s = kSweepDuration;
        c.seed = dmp::exp::replication_seed(kCatalogRoot, s, r);
        ops.push_back(std::move(op));
      }
      add_group(std::move(ops), kSweepDraw);
    }
    return;
  }
  const char* const schemes[] = {"pull",     "weighted", "redundant",
                                 "parity-4", "static",   "stored"};
  std::size_t cell = 0;
  // Largest sessions first, so the pool's tail holds the short ones.
  for (std::size_t k = 4; k >= 2; --k) {
    for (const char* scheme : schemes) {
      for (int faulted = 0; faulted <= 1; ++faulted, ++cell) {
        std::vector<SessionOp> ops;
        for (std::size_t v = 0; v < kMixSeeds; ++v) {
          SessionOp op;
          op.setting = "K" + std::to_string(k) + "|" + scheme +
                       (faulted ? "|outage" : "|clean");
          // Odd seed variants carry in-memory telemetry (no artifacts).
          const bool telemetry = v % 2 == 1;
          op.key = "mix|" + op.setting + "|v" + std::to_string(v) +
                   (telemetry ? "|telemetry" : "");
          SessionConfig& c = op.config;
          for (std::size_t p = 0; p < k; ++p) {
            PathConfig path = dmp::table1_config(static_cast<int>(p % 4) + 1);
            path.ftp_flows = 0;
            path.http_flows = 8;
            c.path_configs.push_back(path);
          }
          c.num_flows = k;
          c.mu_pps = kMixMuPerPath * static_cast<double>(k);
          c.duration_s = kMixDuration;
          c.warmup_s = 5.0;
          c.drain_s = 10.0;
          const std::string s = scheme;
          if (s == "static") {
            c.scheme = StreamScheme::kStatic;
          } else if (s == "stored") {
            c.scheme = StreamScheme::kStored;
          } else {
            c.scheduler = s;
          }
          if (faulted) c.faults = kMixOutage;
          c.telemetry.enabled = telemetry;
          c.seed = dmp::exp::replication_seed(kCatalogRoot, cell, v);
          ops.push_back(std::move(op));
        }
        add_group(std::move(ops), kMixDraw);
      }
    }
  }
}

void SessionWorkload::layer_metrics(const RunContext& ctx, Metrics* out) {
  const LayerAcc& t = traced_;
  const LayerAcc& u = untraced_;
  const double tb = static_cast<double>(std::max<std::size_t>(t.batches, 1));
  out->set("sim.events", static_cast<double>(t.events) / tb, "count");
  out->set("sim.events_per_s",
           u.session_wall_s > 0 ? static_cast<double>(u.events) / u.session_wall_s
                                : 0.0,
           "1/s");
  for (EventCategory cat : kProfiledCategories) {
    out->set("sim." + std::string(dmp::event_category_name(cat)) + ".events",
             static_cast<double>(t.profile[cat].executed) / tb, "count");
  }

  // apps.bg_events: the batch's sessions again with the background removed.
  std::vector<std::size_t> sessions;
  for (std::size_t idx : batch_) {
    if (!catalog_[idx].probe) sessions.push_back(idx);
  }
  std::uint64_t events_without_bg = 0;
  {
    Span span(ctx.tracer, "run_session.no_background", "stream");
    dmp::exp::ExperimentRunner(ctx.threads)
        .run_ordered(
            sessions.size(),
            [&](std::size_t i) {
              return dmp::run_session(
                         without_background(catalog_[sessions[i]].config))
                  .events_executed;
            },
            [&](std::size_t, std::uint64_t events) {
              events_without_bg += events;
            });
  }
  const double events_per_batch = static_cast<double>(t.events) / tb;
  const double bg =
      std::max(0.0, events_per_batch - static_cast<double>(events_without_bg));
  out->set("apps.bg_events", bg, "count");
  out->set("apps.bg_event_share",
           events_per_batch > 0 ? bg / events_per_batch : 0.0, "ratio");

  out->set("tcp.retransmits_per_pkt",
           t.data_sent ? static_cast<double>(t.retransmits) /
                             static_cast<double>(t.data_sent)
                       : 0.0,
           "count");
  out->set("stream.trace_ns_per_pkt",
           t.trace_entries ? t.trace_analysis_s * 1e9 /
                                 static_cast<double>(t.trace_entries)
                           : 0.0,
           "ns");
  out->set("stream.probe_s", u.probes ? u.probe_wall_s / static_cast<double>(u.probes) : 0.0,
           "s");
  out->set("fault.events_fired", static_cast<double>(t.fault_events) / tb,
           "count");
  out->set("exp.report_ms", t.report_s * 1e3 / tb, "ms");
  const double workers = static_cast<double>(ctx.threads);
  out->set("exp.pool_idle_frac",
           u.makespan_s > 0 ? 1.0 - u.busy_s / (workers * u.makespan_s) : 0.0,
           "ratio");

  // The calendar-vs-heap comparison runs the workload's own sessions one at
  // a time on both DES backends, alternating which goes first; the identity
  // contract says their outputs are bit-identical, so this doubles as a
  // check.
  SchedProfile wall_profile{};
  {
    Span span(ctx.tracer, "calendar_vs_heap", "stream");
    double heap_s = 0.0, calendar_s = 0.0;
    std::size_t compared = 0;
    std::string last_setting;
    for (std::size_t idx : batch_) {
      const SessionOp& op = catalog_[idx];
      if (op.probe || op.setting == last_setting) continue;
      last_setting = op.setting;
      std::string digest[2];
      for (int pass = 0; pass < 2; ++pass) {
        const bool heap = (pass + compared) % 2 == 0;
        SessionConfig config = op.config;
        config.des = heap ? "heap" : "calendar";
        const std::int64_t start = now_ns();
        const SessionResult r = dmp::run_session(config);
        (heap ? heap_s : calendar_s) += seconds_since(start);
        double unused = 0.0;
        digest[heap ? 0 : 1] = canonical_session(r, &unused);
      }
      if (digest[0] != digest[1]) {
        throw std::runtime_error("heap and calendar outputs differ for " +
                                 op.key);
      }
      // sim.<cat>.ns: the same session with per-category wall timing.
      SessionConfig config = op.config;
      config.profile = true;
      config.profile_wall_time = true;
      const SchedProfile p = dmp::run_session(config).profile;
      for (std::size_t c = 0; c < dmp::kNumEventCategories; ++c) {
        wall_profile.by_category[c].executed += p.by_category[c].executed;
        wall_profile.by_category[c].wall_ns += p.by_category[c].wall_ns;
      }
      if (++compared == 12) break;
    }
    out->set("sim.calendar_vs_heap", calendar_s > 0 ? heap_s / calendar_s : 0.0,
             "ratio");
  }

  for (EventCategory cat : kProfiledCategories) {
    const auto& c = wall_profile[cat];
    out->set("sim." + std::string(dmp::event_category_name(cat)) + ".ns",
             c.executed ? static_cast<double>(c.wall_ns) /
                              static_cast<double>(c.executed)
                        : 0.0,
             "ns");
  }

  // Telemetry on vs off for the same sessions (stream_mix carries
  // in-memory telemetry on part of its sessions).
  double on_s = 0.0, off_s = 0.0;
  std::size_t compared = 0;
  for (std::size_t idx : batch_) {
    const SessionOp& op = catalog_[idx];
    if (op.probe || !op.config.telemetry.enabled) continue;
    Span span(ctx.tracer, "telemetry_on_vs_off", "obs");
    for (int pass = 0; pass < 2; ++pass) {
      const bool on = (pass + compared) % 2 == 0;
      SessionConfig config = op.config;
      config.telemetry.enabled = on;
      const std::int64_t start = now_ns();
      dmp::run_session(config);
      (on ? on_s : off_s) += seconds_since(start);
    }
    if (++compared == 8) break;
  }
  out->set("obs.telemetry_overhead", off_s > 0 ? on_s / off_s - 1.0 : 0.0,
           "ratio");
  out->set("stream.dup_ratio",
           t.sent_redundant ? static_cast<double>(t.arrivals_redundant) /
                                  static_cast<double>(t.sent_redundant)
                            : 0.0,
           "ratio");

  // Per-layer microbenchmarks on seeded synthetic input.
  const std::uint64_t s = seed_;
  {
    Span span(ctx.tracer, "Link.send", "net");
    out->set("net.link_ns_per_pkt", drive_link_ns_per_packet(s, 400000), "ns");
  }
  for (const char* q : {"pie", "fq_pie", "codel"}) {
    Span span(ctx.tracer, "QueueDiscipline", "net");
    out->set(std::string("net.qdisc.") + q + "_ns_per_pkt",
             drive_qdisc_ns_per_packet(q, s, 400000), "ns");
  }
  {
    Span span(ctx.tracer, "RenoSender.on_ack", "tcp");
    out->set("tcp.ack_ns", drive_reno_ack_ns(s, 400000), "ns");
  }
  {
    Span span(ctx.tracer, "TcpSink.on_data", "tcp");
    out->set("tcp.sink_reorder_ns", drive_sink_reorder_ns(s, 400000), "ns");
  }
  if (video_heavy_) {
    double pick_ns = 0.0;
    const char* const specs[] = {"pull", "weighted", "redundant", "parity-4"};
    for (const char* spec : specs) {
      Span span(ctx.tracer, "PathScheduler.pick", "stream");
      pick_ns += drive_pull_pick_ns(spec, 3, s, 200000);
    }
    out->set("stream.pull_ns", pick_ns / static_cast<double>(std::size(specs)),
             "ns");
    Span span(ctx.tracer, "FlightRecorder.record", "obs");
    out->set("obs.recorder_ns_per_record",
             drive_recorder_ns_per_record(s, 1000000), "ns");
  }
  Span span(ctx.tracer, "OrderedPool.run_ordered", "exp");
  out->set("util.pool_dispatch_us", drive_pool_dispatch_us(ctx.threads, 20000),
           "us");
}

}  // namespace

std::unique_ptr<Workload> make_sim_sweep() {
  return std::make_unique<SessionWorkload>("sim_sweep", false);
}

std::unique_ptr<Workload> make_stream_mix() {
  return std::make_unique<SessionWorkload>("stream_mix", true);
}

}  // namespace perfbench
