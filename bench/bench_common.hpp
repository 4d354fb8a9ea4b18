// Shared plumbing for the reproduction benches: the paper's validation
// settings, replication helpers, and model-parameter estimation.
//
// Configuration comes from exp::BenchOptions (validated DMP_* knobs) and
// every random quantity is seeded from a dmp::SeedStream rooted at
// DMP_SEED — replication seeds, backlogged-probe seeds and Monte-Carlo
// seeds live in disjoint domains (see src/exp/plan.hpp), so no two
// purposes can collide the way additive offsets (`seed + 1` vs `seed + r`)
// once did.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/background.hpp"
#include "exp/options.hpp"
#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "model/composed_chain.hpp"
#include "stream/session.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/seed_stream.hpp"
#include "util/stats.hpp"

namespace dmp::bench {

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// The paper's validation settings: Table-1 configuration pair + playback
// rate (Table 2 for independent paths, Table 3 for correlated paths).
struct ValidationSetting {
  std::string name;
  int config_a;
  int config_b;    // == config_a for homogeneous / correlated settings
  double mu_pps;
  bool correlated; // share one bottleneck (Fig. 6) vs. two paths (Fig. 3)
};

inline std::vector<ValidationSetting> independent_settings() {
  return {
      {"1-1", 1, 1, 50.0, false}, {"2-2", 2, 2, 50.0, false},
      {"3-3", 3, 3, 30.0, false}, {"4-4", 4, 4, 80.0, false},
      {"1-2", 1, 2, 50.0, false}, {"1-3", 1, 3, 40.0, false},
      {"2-3", 2, 3, 40.0, false}, {"3-4", 3, 4, 60.0, false},
  };
}

inline std::vector<ValidationSetting> correlated_settings() {
  return {
      {"1", 1, 1, 50.0, true},
      {"2", 2, 2, 50.0, true},
      {"3", 3, 3, 30.0, true},
      {"4", 4, 4, 80.0, true},
  };
}

// The session for one validation setting.  `config.seed` is left at its
// default — the experiment runner overwrites it with the replication seed.
inline SessionConfig session_for(const ValidationSetting& setting,
                                 double duration_s) {
  SessionConfig config;
  if (setting.correlated) {
    config.path_configs = {table1_config(setting.config_a)};
    config.correlated = true;
  } else {
    config.path_configs = {table1_config(setting.config_a),
                           table1_config(setting.config_b)};
  }
  config.num_flows = 2;
  config.mu_pps = setting.mu_pps;
  config.duration_s = duration_s;
  return config;
}

// An experiment plan over validation settings with shared knobs applied.
inline exp::ExperimentPlan plan_for(const std::string& name,
                                    const std::vector<ValidationSetting>& settings,
                                    const exp::BenchOptions& options,
                                    double duration_s) {
  exp::ExperimentPlan plan;
  plan.name = name;
  plan.replications = static_cast<std::size_t>(options.runs);
  plan.seed = options.seed;
  for (const auto& setting : settings) {
    SessionConfig config = session_for(setting, duration_s);
    // DMP_FAULTS applies the same fault plan to every session the bench
    // runs (empty by default — no injector is constructed).
    config.faults = options.faults;
    // DMP_SCHED swaps the DMP dispatch policy for every session ("pull"
    // by default — the paper's scheme, byte-identical to the old code).
    config.scheduler = options.sched;
    // DMP_QDISC swaps the bottleneck queue discipline for every session
    // ("droptail" by default — the paper's queues, byte-identical).
    config.qdisc = options.qdisc;
    // DMP_DES selects the event-queue backend ("calendar", the radix heap,
    // by default; pop order is bit-identical to "heap", only wall-clock
    // changes).
    config.des = options.des;
    plan.settings.push_back({setting.name, std::move(config)});
  }
  // Attach observability / flight recording to the very first replication;
  // telemetry and the DES profiler attach to EVERY replication (the merged
  // sketch percentiles need every run), with file artifacts only from the
  // first so parallel workers never contend on one path.
  if (options.obs || options.trace || options.telemetry ||
      options.profile != 0) {
    plan.configure = [name, options](SessionConfig& config,
                                     std::size_t setting, std::size_t rep) {
      const bool first = setting == 0 && rep == 0;
      if (options.telemetry) {
        config.telemetry.enabled = true;
        config.telemetry.window_s = options.telemetry_window_s;
        config.telemetry.write_artifacts = first;
        config.telemetry.output_dir = bench_output_dir();
        config.telemetry.prefix = name + "_obs";
      }
      config.profile = options.profile != 0;
      config.profile_wall_time = options.profile == 2;
      if (!first) return;
      config.obs.enabled = options.obs;
      config.obs.flight_recorder = options.trace;
      config.obs.output_dir = bench_output_dir();
      config.obs.prefix = name + "_obs";
      config.obs.probe_interval_s = options.obs_probe_interval_s;
    };
  }
  return plan;
}

// Model parameters for a validation setting, estimated with backlogged
// probes (Section 2.2's sigma_k definition; see stream/session.hpp for why
// video-stream-measured p would bias the model under drop-tail).  The
// probe stream supplies one independent seed per probed path.
// `qdisc` probes under the same bottleneck discipline the sessions ran
// (default droptail), so per-qdisc model parameters reflect the loss/RTT
// process that discipline actually produces.
inline ComposedParams model_params_for(const ValidationSetting& setting,
                                       const SeedStream& probe_seeds,
                                       double probe_duration_s = 1500.0,
                                       const std::string& qdisc = "droptail") {
  ComposedParams params;
  params.mu_pps = setting.mu_pps;
  auto to_chain = [](const BackloggedProbe& probe) {
    TcpChainParams chain;
    chain.loss_rate = probe.loss_rate;
    chain.rtt_s = probe.rtt_s;
    chain.to_ratio = probe.to_ratio;
    chain.wmax = 20;
    chain.ack_every = 1;
    return chain;
  };
  if (setting.correlated) {
    const auto probes = measure_backlogged_paths(
        table1_config(setting.config_a), 2, probe_seeds.at(0),
        probe_duration_s, default_video_tcp(), qdisc);
    params.flows = {to_chain(probes[0]), to_chain(probes[1])};
  } else {
    const auto probe_a = measure_backlogged_paths(
        table1_config(setting.config_a), 1, probe_seeds.at(0),
        probe_duration_s, default_video_tcp(), qdisc);
    const auto probe_b = measure_backlogged_paths(
        table1_config(setting.config_b), 1, probe_seeds.at(1),
        probe_duration_s, default_video_tcp(), qdisc);
    params.flows = {to_chain(probe_a[0]), to_chain(probe_b[0])};
  }
  return params;
}

// mean +/- 95% half-width over replications, formatted.
inline std::string fmt_ci(const std::vector<double>& samples) {
  const auto ci = confidence_interval(samples);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g +/- %.2g", ci.mean, ci.half_width);
  return buf;
}

}  // namespace dmp::bench

// google-benchmark helpers shared by the perf_* guards.  Gated on
// DMP_BENCH_HAVE_BENCHMARK (set only on those targets) so the figure
// benches, which do not depend on google-benchmark, keep compiling this
// header unchanged.
#if defined(DMP_BENCH_HAVE_BENCHMARK)
#include <benchmark/benchmark.h>

namespace dmp::bench {

// items/s reporting for a fixed per-iteration work count — the shape
// bench_guard.py rates (items_per_second) across revisions.
inline void set_items_per_iteration(benchmark::State& state,
                                    std::int64_t items) {
  state.SetItemsProcessed(state.iterations() * items);
}

// One packet-level-session arm: run the session every iteration and report
// executed DES events as items, so items/s is an event rate comparable
// across arms (e.g. telemetry off vs on).
inline void run_session_arm(benchmark::State& state,
                            const SessionConfig& config) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = run_session(config);
    benchmark::DoNotOptimize(result.packets_generated);
    events += result.events_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

}  // namespace dmp::bench
#endif  // DMP_BENCH_HAVE_BENCHMARK
