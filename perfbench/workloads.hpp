// The benchmark's workloads and per-layer microbenchmarks.
//
// A workload turns the --seed argument into a fixed batch of operations
// (set-up), then runs that batch on the library's public API as often as the
// run's time allows.  The same seed gives the same batch.  Operations with
// deterministic outputs are checked against reference digests recorded at
// the seed commit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunContext {
  std::size_t threads = 1;               // pool workers (hardware threads)
  Tracer* tracer = nullptr;              // non-null in traced batches
  const ReferenceCheck* refs = nullptr;  // null while recording references
  ReferenceWriter* writer = nullptr;     // non-null while recording
};

struct BatchOutcome {
  double makespan_s = 0.0;
  // Wall seconds per operation.  On inet_loopback an operation is one frame
  // and its latency is the frame's generation-to-arrival delay.
  std::vector<double> op_latency_s;
  double busy_s = 0.0;  // sum of operation wall times on the pool
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  // Deterministic key + canonical output of the first checked operation,
  // used by the planted-mismatch self-test.
  std::string sample_key, sample_canonical;
};

// Checks `canonical` for `key` (or records it), appending to `outcome`.
void check_output(const RunContext& ctx, const std::string& key,
                  const std::string& canonical, BatchOutcome* outcome);
void record_failure(BatchOutcome* outcome, const std::string& reason);

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the batch from the seed.  This is the benchmark's set-up.
  virtual void setup(std::uint64_t seed) = 0;
  // Runs the batch once.
  virtual BatchOutcome run_batch(const RunContext& ctx) = 0;
  // Traced-run extras after the traced batches: the per-layer
  // microbenchmarks and the per-layer metrics the traced batches gathered.
  virtual void layer_metrics(const RunContext& ctx, Metrics* out) = 0;
  // Human-readable workload record: seed, generated inputs, rationale.
  virtual std::string record() const = 0;
  // Runs every operation the seed could draw (--record-refs).
  virtual void record_catalog(const RunContext& ctx) = 0;
  // Planted-mismatch self-test: feeds the output check a deliberately
  // corrupted copy of a real output from `first` and returns true when the
  // check flags it (and accepts the uncorrupted output).
  virtual bool planted_mismatch_caught(const RunContext& ctx,
                                       const BatchOutcome& first) const;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

// Every per-layer metric, in output order, with its unit.  Workloads that do
// not exercise a layer leave its metrics at 0.
struct LayerMetricSpec {
  std::string name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& layer_metric_specs();

// ---------------------------------------------------------------------------
// Per-layer microbenchmarks: each times one layer through its public API on seeded
// synthetic input and returns nanoseconds (or microseconds) per operation.
// ---------------------------------------------------------------------------
double drive_link_ns_per_packet(std::uint64_t seed, std::size_t packets);
double drive_qdisc_ns_per_packet(const std::string& spec, std::uint64_t seed,
                                 std::size_t packets);
double drive_reno_ack_ns(std::uint64_t seed, std::size_t acks);
double drive_sink_reorder_ns(std::uint64_t seed, std::size_t segments);
double drive_pull_pick_ns(const std::string& spec, std::size_t paths,
                          std::uint64_t seed, std::size_t packets);
double drive_recorder_ns_per_record(std::uint64_t seed, std::size_t records);
double drive_framing_ns_per_frame(std::uint64_t seed, std::size_t frames);
double drive_pool_dispatch_us(std::size_t threads, std::size_t items);

}  // namespace perfbench
