// Validated bench configuration from DMP_* environment variables.
//
// Every bench binary reads the same knob set through BenchOptions, so a
// typo'd variable (DMP_RUN, DMP_DURATION) fails loudly instead of being
// silently ignored, out-of-range values are rejected with the offending
// name and value, and the effective configuration is printed exactly once
// per process so a run's provenance is always in its log.
#pragma once

#include <cstdint>
#include <string>

namespace dmp::exp {

struct BenchOptions {
  std::int64_t runs = 8;             // DMP_RUNS: replications per setting
  double duration_s = 3000.0;        // DMP_DURATION_S: simulated video length
  std::uint64_t seed = 2007;         // DMP_SEED: root of every seed stream
  std::uint64_t mc_min = 400'000;    // DMP_MC_MIN: Monte-Carlo budget floor
  std::uint64_t mc_max = 6'400'000;  // DMP_MC_MAX: Monte-Carlo budget ceiling
  // DMP_THREADS: experiment-runner worker count; 0 = hardware concurrency.
  std::size_t threads = 0;
  // DMP_MODEL_SHARDS: when > 0, model benches (fig8/fig9) estimate with the
  // deterministic sharded Monte-Carlo engine (this many shards, alias
  // sampling) instead of the sequential compat engine.  Output is a pure
  // function of the seed and shard count — identical at any DMP_THREADS —
  // but differs from the shards=0 golden numbers.
  std::uint64_t model_shards = 0;
  // DMP_OBS=1 attaches the observability layer (metrics registry, gauge
  // probe CSV, event JSONL, RunReport JSON) to the first replication.
  bool obs = false;
  double obs_probe_interval_s = 1.0;  // DMP_OBS_PROBE_S
  // DMP_TRACE=1 additionally attaches the per-packet flight recorder to
  // the first replication (inspect with `trace_query`).
  bool trace = false;
  // DMP_TELEMETRY=1 enables the streaming telemetry layer (windowed
  // time-series + quantile sketches) on EVERY replication, so merged-sketch
  // percentiles land in the aggregate report; CSV/JSONL artifacts are
  // written for the first replication only.
  bool telemetry = false;
  double telemetry_window_s = 1.0;  // DMP_TELEMETRY_WINDOW_S
  // DMP_PROFILE=1 attaches the DES self-profiler (per-category executed
  // event counts in the run report); DMP_PROFILE=2 also charges wall
  // nanoseconds per category (non-deterministic; report-only).
  int profile = 0;
  double fig7_duration_s = 3000.0;  // DMP_FIG7_DURATION_S
  double table1_probe_s = 120.0;    // DMP_TABLE1_PROBE_S
  // DMP_SCHED: DMP dispatch policy applied to every simulated session a
  // bench runs (src/stream/scheduler/ grammar: pull | weighted[:w0,w1,...]
  // | best_path | round_robin | redundant | parity-<k>).  Validated by
  // parsing here so a typo'd spec fails before any run starts.
  std::string sched = "pull";
  // DMP_QDISC: bottleneck queue discipline applied to every simulated
  // session a bench runs (src/net/qdisc/ grammar: droptail |
  // pie[:target_ms[,tupdate_ms]] | fq_pie[:flows] |
  // codel[:target_ms[,interval_ms]]).  Validated by parsing here so a
  // typo'd spec fails before any run starts; "droptail" (the default) is
  // byte-identical to the pre-qdisc benches.
  std::string qdisc = "droptail";
  // DMP_DES: discrete-event scheduler backend for every simulated session
  // a bench runs (calendar | heap).  `calendar` names the default bucketed
  // queue, a radix heap that pops in an order bit-identical to the binary
  // heap (docs/DES_ENGINE.md), so this knob changes wall-clock speed
  // only — artifacts are byte-identical either way.
  // Validated by parsing here so a typo'd spec fails before any run starts.
  std::string des = "calendar";
  // DMP_FAULTS: fault-plan spec applied to every simulated session a bench
  // runs (src/fault/ grammar, e.g. "20 link_down path1; 25 link_up path1").
  // Validated by parsing here so a typo'd plan fails before any run starts.
  std::string faults{};
  // DMP_SLO: path to a declarative expectation spec (slo/*.slo).  The
  // spec is parsed here (fail-fast on typos) and evaluated against each
  // BENCH_*.json the run writes; any violation exits the bench with
  // status 3 (see exp::evaluate_slo_env).
  std::string slo{};

  // Parses and validates the environment.  Throws std::invalid_argument
  // naming the variable on a malformed value, an out-of-range value, or an
  // unrecognized DMP_*-prefixed variable.
  static BenchOptions from_env();

  // One-line effective configuration (printed by `bench_options()` below).
  std::string summary() const;
};

// from_env() with bench ergonomics: on failure prints the error to stderr
// and exits with status 2; on success prints the effective configuration
// once per process.
BenchOptions bench_options();

}  // namespace dmp::exp
