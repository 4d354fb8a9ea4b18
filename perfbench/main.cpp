// Benchmark binary for the DMP streaming reproduction.
//
//   perfbench --workload <sim_sweep|stream_mix|model_sweep|inet_loopback>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--refs <dir>] [--t0-ns <monotonic ns>] [--setup-only]
//             [--record-refs]
//
// --trace 0 repeats the workload's fixed batch for --seconds and prints the
// end-to-end metrics; --trace 1 runs two untraced and two traced batches
// plus the per-layer microbenchmarks and prints the per-layer metrics.  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  See perfbench/README.md.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_sim_sweep();
std::unique_ptr<Workload> make_stream_mix();
std::unique_ptr<Workload> make_model_sweep();
std::unique_ptr<Workload> make_inet_loopback();

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sim_sweep") return make_sim_sweep();
  if (name == "stream_mix") return make_stream_mix();
  if (name == "model_sweep") return make_model_sweep();
  if (name == "inet_loopback") return make_inet_loopback();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = [] {
    std::vector<LayerMetricSpec> s = {{"sim.events", "count"},
                                      {"sim.events_per_s", "1/s"}};
    for (const char* cat : {"link_tx", "link_delivery", "tcp_send",
                            "tcp_timer", "source", "other"}) {
      s.push_back({std::string("sim.") + cat + ".events", "count"});
      s.push_back({std::string("sim.") + cat + ".ns", "ns"});
    }
    s.insert(s.end(), {
                          {"sim.calendar_vs_heap", "ratio"},
                          {"apps.bg_events", "count"},
                          {"apps.bg_event_share", "ratio"},
                          {"net.link_ns_per_pkt", "ns"},
                          {"net.qdisc.pie_ns_per_pkt", "ns"},
                          {"net.qdisc.fq_pie_ns_per_pkt", "ns"},
                          {"net.qdisc.codel_ns_per_pkt", "ns"},
                          {"tcp.ack_ns", "ns"},
                          {"tcp.sink_reorder_ns", "ns"},
                          {"tcp.retransmits_per_pkt", "count"},
                          {"stream.pull_ns", "ns"},
                          {"stream.trace_ns_per_pkt", "ns"},
                          {"stream.dup_ratio", "ratio"},
                          {"stream.probe_s", "s"},
                          {"fault.events_fired", "count"},
                          {"obs.telemetry_overhead", "ratio"},
                          {"obs.recorder_ns_per_record", "ns"},
                          {"model.chain_build_ms", "ms"},
                          {"model.chain_cache_hit_ratio", "ratio"},
                          {"model.mc_compat_ns_per_consumption", "ns"},
                          {"model.mc_alias_ns_per_consumption", "ns"},
                          {"model.mc_sharded_ns_per_consumption", "ns"},
                          {"model.mc_sharded_speedup", "ratio"},
                          {"model.probes_per_solve", "count"},
                          {"solver.exact_ms", "ms"},
                          {"exp.pool_idle_frac", "ratio"},
                          {"exp.report_ms", "ms"},
                          {"util.pool_dispatch_us", "us"},
                          {"inet.framing_ns_per_frame", "ns"},
                          {"inet.max_queue_frames", "count"},
                          {"inet.frame_delay_p99_ms", "ms"},
                          {"inet.cpu_us_per_frame", "us"},
                          {"trace.overhead_s", "s"},
                          {"trace.spans", "count"},
                      });
    for (const char* layer :
         {"net", "tcp", "stream", "model", "exp", "obs", "inet"}) {
      s.push_back({std::string("self.") + layer + "_ms", "ms"});
    }
    return s;
  }();
  return specs;
}

bool ReferenceCheck::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key, digest;
    if (!std::getline(fields, key, '\t') || !std::getline(fields, digest, '\t')) {
      continue;
    }
    digests_[key] = std::stoull(digest, nullptr, 16);
  }
  return !digests_.empty();
}

std::string ReferenceCheck::verify(const std::string& key,
                                   const std::string& canonical) const {
  const auto it = digests_.find(key);
  if (it == digests_.end()) return key + ": no reference recorded";
  if (it->second != fnv1a(canonical)) {
    return key + ": output differs from the seed-commit reference (" +
           canonical.substr(0, 120) + ")";
  }
  return "";
}

bool ReferenceWriter::write(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, canonical] : rows_) {
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv1a(canonical)));
    out << key << '\t' << digest << '\t' << canonical.substr(0, 60) << '\n';
  }
  return static_cast<bool>(out);
}

void record_failure(BatchOutcome* outcome, const std::string& reason) {
  ++outcome->failed;
  if (outcome->errors.size() < 5) outcome->errors.push_back(reason);
}

void check_output(const RunContext& ctx, const std::string& key,
                  const std::string& canonical, BatchOutcome* outcome) {
  if (outcome->sample_key.empty()) {
    outcome->sample_key = key;
    outcome->sample_canonical = canonical;
  }
  if (ctx.writer) {
    ctx.writer->add(key, canonical);
    return;
  }
  const std::string problem = ctx.refs ? ctx.refs->verify(key, canonical)
                                       : key + ": no reference file";
  if (!problem.empty()) record_failure(outcome, problem);
}

bool Workload::planted_mismatch_caught(const RunContext& ctx,
                                       const BatchOutcome& first) const {
  if (!ctx.refs || first.sample_key.empty()) return false;
  std::string planted = first.sample_canonical;
  planted.back() = planted.back() == '0' ? '1' : '0';
  return ctx.refs->verify(first.sample_key, first.sample_canonical).empty() &&
         !ctx.refs->verify(first.sample_key, planted).empty();
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_dir = "perfbench/reference";
  std::int64_t t0_ns = 0;
  bool setup_only = false;
  bool record_refs = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--refs") {
      a.refs_dir = value();
    } else if (flag == "--t0-ns") {
      a.t0_ns = std::stoll(value());
    } else if (flag == "--setup-only") {
      a.setup_only = true;
    } else if (flag == "--record-refs") {
      a.record_refs = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  // Set-up: workload inputs from the seed, the reference digests, the pool
  // size.  It ends when the first operation starts.
  auto workload = make_workload(args.workload);
  workload->setup(args.seed);
  ReferenceCheck refs;
  const std::string refs_path = args.refs_dir + "/" + args.workload + ".tsv";
  const bool have_refs = refs.load(refs_path);
  RunContext ctx;
  ctx.threads = std::max(1u, std::thread::hardware_concurrency());
  ctx.refs = have_refs ? &refs : nullptr;
  const double setup_s =
      args.t0_ns > 0 ? static_cast<double>(now_ns() - args.t0_ns) * 1e-9 : 0.0;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %s}\n", num(setup_s).c_str());
    return 0;
  }

  if (args.record_refs) {
    ReferenceWriter writer;
    ctx.writer = &writer;
    workload->record_catalog(ctx);
    if (!writer.write(refs_path)) {
      std::fprintf(stderr, "cannot write %s\n", refs_path.c_str());
      return 1;
    }
    std::printf("recorded references: %s\n", refs_path.c_str());
    return 0;
  }

  std::printf("%s", workload->record().c_str());
  std::printf("threads: %zu; reference digests: %zu from %s\n", ctx.threads,
              refs.size(), refs_path.c_str());

  const std::int64_t run_start = now_ns();
  // Per untraced batch: makespan, peak RSS, CPU per operation.
  std::vector<double> makespans, traced_makespans, latencies, peaks_mb,
      cpu_per_op_us;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  bool self_test_ok = true;
  Tracer tracer;

  auto run_one = [&](bool traced) {
    RunContext batch_ctx = ctx;
    batch_ctx.tracer = traced ? &tracer : nullptr;
    reset_peak_rss();
    const double cpu0 = process_cpu_s();
    BatchOutcome b = workload->run_batch(batch_ctx);
    if (!traced && !b.op_latency_s.empty()) {
      cpu_per_op_us.push_back((process_cpu_s() - cpu0) * 1e6 /
                              static_cast<double>(b.op_latency_s.size()));
      peaks_mb.push_back(peak_rss_mb());
    }
    (traced ? traced_makespans : makespans).push_back(b.makespan_s);
    if (!traced) {
      latencies.insert(latencies.end(), b.op_latency_s.begin(),
                       b.op_latency_s.end());
    }
    if (attempted == 0) {
      self_test_ok = workload->planted_mismatch_caught(ctx, b);
      std::printf("self-test: planted mismatch %s\n",
                  self_test_ok ? "detected" : "NOT detected");
    }
    attempted += b.attempted;
    failed += b.failed;
    for (const auto& e : b.errors) {
      if (errors.size() < 10) errors.push_back(e);
    }
    std::printf("batch %s: %.3f s, %llu ops, %llu failed\n",
                traced ? "traced" : "untraced", b.makespan_s,
                static_cast<unsigned long long>(b.attempted),
                static_cast<unsigned long long>(b.failed));
  };

  Metrics metrics;
  if (!args.trace) {
    // Repeat the batch while another one fits in the measurement window.
    do {
      run_one(false);
    } while (seconds_since(run_start) + median(makespans) < args.seconds);
    metrics.set("setup_s", setup_s, "s");
    metrics.set("makespan_s", median(makespans), "s");
    metrics.set("op_p50_s", quantile(latencies, 0.5), "s");
    metrics.set("op_p90_s", quantile(latencies, 0.9), "s");
    metrics.set("peak_rss_mb", median(peaks_mb), "MB");
    const double error_rate =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                  : 1.0;
    std::printf("\n%s: %zu batches, %zu operations timed\n",
                args.workload.c_str(), makespans.size(), latencies.size());
    metrics.print_table("end-to-end metrics (untraced)");
    std::printf("  %-34s %16.6g %s\n", "error_rate", error_rate, "ratio");
    std::printf("  %-34s %16.6g us\n", "cpu_us_per_op", median(cpu_per_op_us));
    if (args.workload == "inet_loopback") {
      // The same measurements under their inet names.
      std::printf("  %-34s %16.6g ms\n", "frame_delay_p50_ms",
                  quantile(latencies, 0.5) * 1e3);
      std::printf("  %-34s %16.6g ms\n", "frame_delay_p99_ms",
                  quantile(latencies, 0.99) * 1e3);
      std::printf("  %-34s %16.6g us\n", "cpu_us_per_frame",
                  median(cpu_per_op_us));
    }
  } else {
    // Fixed shape, so span totals compare across revisions: two untraced
    // and two traced batches, alternating, then the per-layer
    // microbenchmarks.
    for (int pair = 0; pair < 2; ++pair) {
      run_one(false);
      run_one(true);
    }
    for (const auto& spec : layer_metric_specs()) {
      metrics.set(spec.name, 0.0, spec.unit);
    }
    RunContext traced_ctx = ctx;
    traced_ctx.tracer = &tracer;
    try {
      workload->layer_metrics(traced_ctx, &metrics);
    } catch (const std::exception& e) {
      errors.push_back(std::string("layer microbenchmark: ") + e.what());
      ++failed;
    }
    metrics.set("trace.overhead_s", median(traced_makespans) - median(makespans),
                "s");
    metrics.set("trace.spans", static_cast<double>(tracer.size()), "count");
    for (const auto& [layer, self_s] : tracer.self_seconds_by_layer()) {
      metrics.set("self." + std::string(layer) + "_ms", self_s * 1e3, "ms");
    }
    std::printf("\n%s traced run: makespan untraced %.3f s, traced %.3f s\n",
                args.workload.c_str(), median(makespans),
                median(traced_makespans));
    metrics.print_table("per-layer metrics (traced run)");
  }
  for (const auto& e : errors) std::printf("error: %s\n", e.c_str());
  const bool correct = failed == 0 && errors.empty() && self_test_ok;
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
