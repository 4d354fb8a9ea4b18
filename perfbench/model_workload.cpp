// model_sweep: required-startup-delay bisections over the fig8 / fig9 /
// fig10 / ext_kpaths parameter grid, plus small exact product-chain solves.
// It executes no DES events: the bypass workload for simulator changes.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "model/chain_cache.hpp"
#include "model/composed_chain.hpp"
#include "model/heterogeneity.hpp"
#include "model/required_delay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dmp::ComposedParams;
using dmp::TcpChainParams;

constexpr std::uint64_t kCatalogRoot = 2007;
constexpr std::size_t kVariants = 4;  // catalog MC seeds per (point, mode)
constexpr std::size_t kDraw = 2;      // of which a batch solves this many
constexpr double kTo = 4.0;
// Reduced Monte-Carlo budgets so one solve takes tens of milliseconds.
constexpr std::uint64_t kMinConsumptions = 200'000;
constexpr std::uint64_t kMaxConsumptions = 1'600'000;
constexpr std::uint64_t kShards = 8;

TcpChainParams chain_of(double p, double rtt_s, int wmax = 20) {
  TcpChainParams c;
  c.loss_rate = p;
  c.rtt_s = rtt_s;
  c.to_ratio = kTo;
  c.wmax = wmax;
  c.ack_every = 1;
  return c;
}

// sigma(p, 1, TO): all chain rates scale with 1/R (bench/param_space.hpp).
double unit_rtt_throughput(double p) {
  return dmp::TcpFlowChain(chain_of(p, 1.0)).achievable_throughput_pps();
}

struct ModelOp {
  std::string key;
  bool exact = false;
  bool sharded = false;
  ComposedParams params;
  double tau_max_s = 120.0;
  std::uint64_t seed = 0;
};

struct OpResult {
  double wall_s = 0.0;
  std::string error;
  std::string canonical;
  std::uint64_t evaluations = 0;
  bool exact = false;
};

OpResult run_op(const ModelOp& op, Tracer* tracer) {
  OpResult out;
  out.exact = op.exact;
  const std::int64_t start = now_ns();
  if (op.exact) {
    Span span(tracer, "ComposedChainExact", "model");
    const dmp::ComposedChainExact exact(op.params);
    out.canonical = "states=" + std::to_string(exact.num_states()) +
                    " f=" + num(exact.late_fraction());
  } else {
    Span span(tracer, "required_startup_delay", "model");
    dmp::RequiredDelayOptions options;
    options.min_consumptions = kMinConsumptions;
    options.max_consumptions = kMaxConsumptions;
    options.tau_max_s = op.tau_max_s;
    options.seed = op.seed;
    options.shards = op.sharded ? kShards : 0;
    options.threads = 1;  // the batch pool already fills every core
    const auto r = dmp::required_startup_delay(op.params, options);
    out.canonical = "tau=" + num(r.tau_s) +
                    " feasible=" + (r.feasible ? "1" : "0") +
                    " late=" + num(r.late_at_tau) +
                    " evals=" + std::to_string(r.evaluations);
    out.evaluations = r.evaluations;
  }
  out.wall_s = seconds_since(start);
  return out;
}

struct LayerAcc {
  std::size_t batches = 0;
  double makespan_s = 0.0, busy_s = 0.0;
  std::uint64_t solves = 0, evaluations = 0;
  std::uint64_t exact_solves = 0;
  double exact_s = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

class ModelWorkload : public Workload {
 public:
  ModelWorkload() { build_catalog(); }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    batch_.clear();
    dmp::Rng rng(seed);
    // kDraw seed variants per (point, mode): every batch solves the same
    // points in the same modes, with seed-chosen Monte-Carlo streams.
    for (std::size_t base = 0; base < catalog_.size(); base += kVariants) {
      const std::size_t first = rng.uniform_int(kVariants);
      for (std::size_t d = 0; d < kDraw; ++d) {
        batch_.push_back(base + (first + d) % kVariants);
      }
    }
  }

  BatchOutcome run_batch(const RunContext& ctx) override {
    BatchOutcome outcome;
    LayerAcc& acc = ctx.tracer ? traced_ : untraced_;
    // Every batch starts from a cold chain cache.
    dmp::chain_cache_clear();
    const std::int64_t start = now_ns();
    {
      Span batch_span(ctx.tracer, "ExperimentRunner.run_ordered", "exp");
      const SpanContext parent = tls_span_context;
      dmp::exp::ExperimentRunner runner(ctx.threads);
      runner.run_ordered(
          batch_.size(),
          [&](std::size_t i) {
            const ModelOp& op = catalog_[batch_[i]];
            Span op_span(ctx.tracer, "solve", "exp",
                         SpanContext{parent.span, i + 1});
            try {
              return run_op(op, ctx.tracer);
            } catch (const std::exception& e) {
              OpResult failed;
              failed.error = op.key + ": " + e.what();
              return failed;
            }
          },
          [&](std::size_t i, const OpResult& r) {
            const ModelOp& op = catalog_[batch_[i]];
            ++outcome.attempted;
            outcome.op_latency_s.push_back(r.wall_s);
            outcome.busy_s += r.wall_s;
            if (!r.error.empty()) {
              record_failure(&outcome, r.error);
              return;
            }
            check_output(ctx, op.key, r.canonical, &outcome);
            if (r.exact) {
              ++acc.exact_solves;
              acc.exact_s += r.wall_s;
            } else {
              ++acc.solves;
              acc.evaluations += r.evaluations;
            }
          });
    }
    outcome.makespan_s = seconds_since(start);
    const auto stats = dmp::chain_cache_stats();
    ++acc.batches;
    acc.makespan_s += outcome.makespan_s;
    acc.busy_s += outcome.busy_s;
    acc.cache_hits += stats.hits;
    acc.cache_misses += stats.misses;
    return outcome;
  }

  void layer_metrics(const RunContext& ctx, Metrics* out) override;

  std::string record() const override {
    std::string out = "workload model_sweep seed " + std::to_string(seed_) +
                      ": " + std::to_string(batch_.size()) + " operations\n";
    out += "  why: model/solver/OrderedPool only, zero DES events; the "
           "bypass workload for every simulator change\n";
    for (std::size_t idx : batch_) {
      out += "  " + catalog_[idx].key + " seed=" +
             std::to_string(catalog_[idx].seed) + "\n";
    }
    return out;
  }

  void record_catalog(const RunContext& ctx) override {
    batch_.clear();
    for (std::size_t i = 0; i < catalog_.size(); ++i) batch_.push_back(i);
    run_batch(ctx);
  }

 private:
  void add_point(const std::string& key, const ComposedParams& params,
                 double tau_max_s) {
    for (int sharded = 0; sharded <= 1; ++sharded) {
      const auto seeds = dmp::exp::mc_stream(kCatalogRoot,
                                             catalog_.size() / kVariants);
      for (std::size_t v = 0; v < kVariants; ++v) {
        ModelOp op;
        op.key = "solve|" + key + (sharded ? "|sharded" : "|compat") + "|v" +
                 std::to_string(v);
        op.sharded = sharded != 0;
        op.params = params;
        op.tau_max_s = tau_max_s;
        op.seed = seeds.at(v);
        catalog_.push_back(std::move(op));
      }
    }
  }

  void build_catalog();

  std::uint64_t seed_ = 0;
  std::vector<ModelOp> catalog_;  // kVariants consecutive entries per cell
  std::vector<std::size_t> batch_;
  LayerAcc untraced_, traced_;
};

void ModelWorkload::build_catalog() {
  char key[96];
  auto homogeneous = [](std::size_t k, double p, double rtt, double mu) {
    ComposedParams params;
    params.flows.assign(k, chain_of(p, rtt));
    params.mu_pps = mu;
    return params;
  };
  // Fig. 9 (a): ratio 1.6 by RTT; (b): by mu.  RTT > 600 ms is omitted there.
  const double ratio9 = 1.6;
  for (double mu : {25.0, 50.0, 100.0}) {
    for (double p : {0.004, 0.02, 0.04}) {
      const double rtt = 2.0 * unit_rtt_throughput(p) / (ratio9 * mu);
      if (rtt > 0.6) continue;
      std::snprintf(key, sizeof key, "fig9a|p%g|mu%g", p, mu);
      add_point(key, homogeneous(2, p, rtt, mu), 60.0);
    }
  }
  for (double rtt : {0.1, 0.2, 0.3}) {
    for (double p : {0.004, 0.02, 0.04}) {
      const double mu = 2.0 * unit_rtt_throughput(p) / (rtt * ratio9);
      std::snprintf(key, sizeof key, "fig9b|p%g|rtt%g", p, rtt);
      add_point(key, homogeneous(2, p, rtt, mu), 120.0);
    }
  }
  // Fig. 8: p = 0.02, mu = 25, sigma_a/mu in 1.2..2.0.
  for (double ratio : {1.2, 1.4, 1.6, 1.8, 2.0}) {
    const double rtt = 2.0 * unit_rtt_throughput(0.02) / (ratio * 25.0);
    std::snprintf(key, sizeof key, "fig8|ratio%g", ratio);
    add_point(key, homogeneous(2, 0.02, rtt, 25.0), 120.0);
  }
  // Fig. 10: heterogeneous pairs against their homogeneous baselines.
  struct Base {
    dmp::HeterogeneityCase kind;
    double p, rtt;
    const char* label;
  };
  const Base bases[] = {
      {dmp::HeterogeneityCase::kRtt, 0.01, 0.150, "rtt-p0.01"},
      {dmp::HeterogeneityCase::kRtt, 0.04, 0.150, "rtt-p0.04"},
      {dmp::HeterogeneityCase::kLoss, 0.02, 0.100, "loss-r0.1"},
      {dmp::HeterogeneityCase::kLoss, 0.02, 0.300, "loss-r0.3"},
  };
  for (const Base& base : bases) {
    for (double ratio : {1.4, 1.6, 1.8}) {
      const double mu =
          2.0 * unit_rtt_throughput(base.p) / (base.rtt * ratio);
      std::snprintf(key, sizeof key, "fig10|%s|homo|ratio%g", base.label,
                    ratio);
      add_point(key, homogeneous(2, base.p, base.rtt, mu), 90.0);
      for (double gamma : {1.5, 2.0}) {
        const auto pair = dmp::heterogeneous_pair(chain_of(base.p, base.rtt),
                                                  base.kind, gamma);
        ComposedParams params;
        params.flows = {pair.flows[0], pair.flows[1]};
        params.mu_pps = mu;
        std::snprintf(key, sizeof key, "fig10|%s|gamma%g|ratio%g", base.label,
                      gamma, ratio);
        add_point(key, params, 90.0);
      }
    }
  }
  // ext_kpaths: K = 1..4 at equal aggregate throughput.
  for (double ratio : {1.4, 1.6}) {
    for (std::size_t k = 1; k <= 4; ++k) {
      const double rtt = unit_rtt_throughput(0.02) * static_cast<double>(k) /
                         (ratio * 25.0);
      std::snprintf(key, sizeof key, "kpaths|K%zu|ratio%g", k, ratio);
      add_point(key, homogeneous(k, 0.02, rtt, 25.0), 90.0);
    }
  }
  // Small-Nmax exact solves of the composed product chain (the state space
  // is the product of the flow chains times Nmax + 1, so K = 2 keeps the
  // window small).
  struct ExactCell {
    std::size_t k;
    int wmax;
  };
  for (const ExactCell cell : {ExactCell{1, 8}, ExactCell{1, 12},
                               ExactCell{2, 3}, ExactCell{2, 4}}) {
    for (double p : {0.02, 0.05}) {
      for (double tau : {1.0, 2.0}) {
        ComposedParams params;
        params.flows.assign(cell.k, chain_of(p, 0.2, cell.wmax));
        params.mu_pps = 12.0 * static_cast<double>(cell.k);
        params.tau_s = tau;
        for (std::size_t v = 0; v < kVariants; ++v) {
          // Exact solves are deterministic: the variants share outputs and
          // keep the catalog's kVariants-entries-per-cell layout.
          ModelOp op;
          std::snprintf(key, sizeof key, "exact|K%zu|w%d|p%g|tau%g|v%zu",
                        cell.k, cell.wmax, p, tau, v);
          op.key = key;
          op.exact = true;
          op.params = params;
          catalog_.push_back(std::move(op));
        }
      }
    }
  }
}

void ModelWorkload::layer_metrics(const RunContext& ctx, Metrics* out) {
  const LayerAcc& t = traced_;
  const LayerAcc& u = untraced_;
  const std::uint64_t lookups = t.cache_hits + t.cache_misses;
  out->set("model.chain_cache_hit_ratio",
           lookups ? static_cast<double>(t.cache_hits) /
                         static_cast<double>(lookups)
                   : 0.0,
           "ratio");
  out->set("model.probes_per_solve",
           t.solves ? static_cast<double>(t.evaluations) /
                          static_cast<double>(t.solves)
                    : 0.0,
           "count");
  out->set("solver.exact_ms",
           t.exact_solves ? t.exact_s * 1e3 / static_cast<double>(t.exact_solves)
                          : 0.0,
           "ms");
  out->set("exp.pool_idle_frac",
           u.makespan_s > 0
               ? 1.0 - u.busy_s / (static_cast<double>(ctx.threads) * u.makespan_s)
               : 0.0,
           "ratio");

  // Chain build on a cache miss: the BFS build plus the stationary solve
  // the first user triggers, for every distinct flow in the catalog.
  {
    Span span(ctx.tracer, "shared_flow_chain.miss", "model");
    dmp::chain_cache_clear();
    std::vector<TcpChainParams> distinct;
    for (const auto& op : catalog_) {
      for (const auto& f : op.params.flows) {
        const bool seen = std::any_of(
            distinct.begin(), distinct.end(), [&](const TcpChainParams& d) {
              return d.loss_rate == f.loss_rate && d.rtt_s == f.rtt_s &&
                     d.to_ratio == f.to_ratio && d.wmax == f.wmax;
            });
        if (!seen) distinct.push_back(f);
      }
    }
    double build_s = 0.0;
    for (const auto& f : distinct) {
      const std::int64_t start = now_ns();
      const auto chain = dmp::shared_flow_chain(f);
      if (chain->achievable_throughput_pps() <= 0.0) {
        throw std::runtime_error("chain with zero throughput");
      }
      build_s += seconds_since(start);
    }
    out->set("model.chain_build_ms",
             build_s * 1e3 / static_cast<double>(distinct.size()), "ms");
  }

  // Monte-Carlo rates in wall time on one fig9 point at tau = 10 s: the
  // sequential compat and alias samplers, and the sharded estimator on every
  // worker, so the sharding gain reads directly off the alias rate.
  ComposedParams params;
  params.flows.assign(2, chain_of(0.02, 0.2));
  params.mu_pps = 2.0 * unit_rtt_throughput(0.02) / (0.2 * 1.6);
  params.tau_s = 10.0;
  const std::uint64_t consumptions = 4'000'000;
  const std::uint64_t seed = dmp::exp::mc_stream(seed_, 99).at(0);
  auto rate = [&](const char* name, auto&& fn) {
    Span span(ctx.tracer, name, "model");
    const std::int64_t start = now_ns();
    const std::uint64_t counted = fn();
    return static_cast<double>(now_ns() - start) / static_cast<double>(counted);
  };
  const double compat_ns = rate("DmpModelMonteCarlo.run.compat", [&] {
    dmp::DmpModelMonteCarlo mc(params, seed, dmp::SamplerMode::kCompat);
    return mc.run(consumptions / 4, consumptions / 40).consumptions;
  });
  const double alias_ns = rate("DmpModelMonteCarlo.run.alias", [&] {
    dmp::DmpModelMonteCarlo mc(params, seed, dmp::SamplerMode::kAlias);
    return mc.run(consumptions, consumptions / 10).consumptions;
  });
  const double sharded_ns = rate("DmpModelMonteCarlo.run_sharded", [&] {
    const dmp::DmpModelMonteCarlo mc(params, seed, dmp::SamplerMode::kAlias);
    const std::uint64_t shards = 4 * ctx.threads;
    return mc
        .run_sharded(shards, 4 * consumptions / shards,
                     dmp::DmpModelMonteCarlo::kAutoWarmup, ctx.threads)
        .consumptions;
  });
  out->set("model.mc_compat_ns_per_consumption", compat_ns, "ns");
  out->set("model.mc_alias_ns_per_consumption", alias_ns, "ns");
  out->set("model.mc_sharded_ns_per_consumption", sharded_ns, "ns");
  out->set("model.mc_sharded_speedup", sharded_ns > 0 ? alias_ns / sharded_ns : 0.0,
           "ratio");
  Span span(ctx.tracer, "OrderedPool.run_ordered", "exp");
  out->set("util.pool_dispatch_us", drive_pool_dispatch_us(ctx.threads, 20000),
           "us");
}

}  // namespace

std::unique_ptr<Workload> make_model_sweep() {
  return std::make_unique<ModelWorkload>();
}

}  // namespace perfbench
