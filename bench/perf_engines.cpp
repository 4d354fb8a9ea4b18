// Engine performance guards (google-benchmark): event-scheduler throughput,
// packet-level simulation speed, per-flow chain construction/solution, and
// the composed Monte-Carlo engine.  Not part of the paper — these keep the
// reproduction pipeline's cost visible and regressions detectable.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "apps/background.hpp"
#include "model/chain_cache.hpp"
#include "model/composed_chain.hpp"
#include "net/demux.hpp"
#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "stream/session.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmp;

ComposedParams composed_setup(int kflows) {
  TcpChainParams flow;
  flow.loss_rate = 0.02;
  flow.rtt_s = 0.2;
  flow.to_ratio = 2.0;
  flow.wmax = 20;
  ComposedParams params;
  params.flows.assign(static_cast<std::size_t>(kflows), flow);
  params.mu_pps = 20.0 * kflows;  // keep sigma_a/mu comparable across K
  params.tau_s = 10.0;
  return params;
}

// Raw scheduler churn under each backend: arg 0 = calendar (the default
// radix-heap queue), arg 1 = heap (the std::push_heap baseline).
void BM_SchedulerEventChurn(benchmark::State& state) {
  const SchedulerBackend backend = state.range(0) == 0
                                       ? SchedulerBackend::kCalendar
                                       : SchedulerBackend::kHeap;
  state.SetLabel(scheduler_backend_name(backend));
  for (auto _ : state) {
    Scheduler sched(backend);
    std::int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sched.post_after(SimTime::micros(10), tick);
    };
    sched.post_at(SimTime::zero(), tick);
    sched.run();
    benchmark::DoNotOptimize(count);
  }
  bench::set_items_per_iteration(state, 10000);
}
BENCHMARK(BM_SchedulerEventChurn)->DenseRange(0, 1);

// The DES queue's layer row: a deterministic, session-shaped op stream on
// each backend (arg 0 = calendar, arg 1 = heap).  Packet chains alternate
// a 10 us - 1 ms transmission with a 10-100 ms propagation, and on every
// other executed event one flow's 0.2-3 s RTO timer is re-armed, leaving
// the superseded key queued as a tombstone — the Reno per-ACK timer
// pattern.  About 300 entries are pending in steady state.  One iteration
// is one executed event; the `pending` and `cancelled_per_event` counters
// describe the stream, which is identical on both backends.
struct SessionMix {
  static constexpr int kChains = 10;
  static constexpr int kFlows = 24;

  struct Chain {
    SessionMix* mix;
    std::uint32_t port;
    bool propagating;
  };

  explicit SessionMix(SchedulerBackend backend) : sched(backend) {
    chains.reserve(kChains);
    for (int i = 0; i < kChains; ++i) {
      chains.push_back(Chain{this, 0, i % 2 == 0});
      chains.back().port = sched.register_port(&SessionMix::fire,
                                               &chains.back());
      sched.post_port_at(SimTime::zero(), chains.back().port);
    }
    rto_ports.reserve(kFlows);
    for (int i = 0; i < kFlows; ++i) {
      rto_ports.push_back(sched.register_port([](void*) {}, nullptr,
                                              EventCategory::kTcpTimer));
      arm_rto(rto_ports.back());
    }
  }
  // Ports hold pointers into this object.
  SessionMix(const SessionMix&) = delete;
  SessionMix& operator=(const SessionMix&) = delete;

  static void fire(void* ctx) {
    auto* chain = static_cast<Chain*>(ctx);
    SessionMix& mix = *chain->mix;
    const double delay_s = chain->propagating
                               ? mix.rng.uniform(10e-3, 100e-3)
                               : mix.rng.uniform(10e-6, 1e-3);
    chain->propagating = !chain->propagating;
    mix.sched.post_port_after(SimTime::seconds(delay_s), chain->port);
    if (++mix.executed % 2 == 0) {
      mix.arm_rto(mix.rto_ports[mix.executed / 2 % kFlows]);
    }
  }

  void arm_rto(std::uint32_t port) {
    sched.arm_port_after(SimTime::seconds(rng.uniform(0.2, 3.0)), port);
  }

  Scheduler sched;
  Rng rng{17};
  std::uint64_t executed = 0;
  std::vector<Chain> chains;
  std::vector<std::uint32_t> rto_ports;
};

void BM_EventQueueSessionMix(benchmark::State& state) {
  const SchedulerBackend backend = state.range(0) == 0
                                       ? SchedulerBackend::kCalendar
                                       : SchedulerBackend::kHeap;
  state.SetLabel(scheduler_backend_name(backend));
  SessionMix mix(backend);
  mix.sched.run_until(SimTime::seconds(5.0));  // tombstones reach steady state
  const std::uint64_t cancelled0 = mix.sched.events_cancelled();
  for (auto _ : state) benchmark::DoNotOptimize(mix.sched.step());
  state.counters["pending"] = static_cast<double>(mix.sched.pending_events());
  state.counters["cancelled_per_event"] =
      static_cast<double>(mix.sched.events_cancelled() - cancelled0) /
      static_cast<double>(state.iterations());
  bench::set_items_per_iteration(state, 1);
}
BENCHMARK(BM_EventQueueSessionMix)->DenseRange(0, 1);

void BM_PacketLevelSession(benchmark::State& state) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 5.0;
  config.seed = 11;
  bench::run_session_arm(state, config);
}
BENCHMARK(BM_PacketLevelSession)->Unit(benchmark::kMillisecond);

// The identical session on the binary-heap backend — the ratio against
// BM_PacketLevelSession is the default queue's end-to-end win, and
// bench_guard.py checks the default arm never regresses below it.
void BM_PacketLevelSessionHeap(benchmark::State& state) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 5.0;
  config.seed = 11;
  config.des = "heap";
  bench::run_session_arm(state, config);
}
BENCHMARK(BM_PacketLevelSessionHeap)->Unit(benchmark::kMillisecond);

// Same session under each AQM discipline — the ratio against the droptail
// arm above is the qdisc hot-path cost bench_guard.py rates (the lazy
// controller stepping must not slow the per-packet path measurably).
void BM_PacketLevelSessionQdisc(benchmark::State& state) {
  static const char* const kQdiscs[] = {"droptail", "pie", "fq_pie", "codel"};
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 5.0;
  config.seed = 11;
  config.qdisc = kQdiscs[state.range(0)];
  state.SetLabel(config.qdisc);
  bench::run_session_arm(state, config);
}
BENCHMARK(BM_PacketLevelSessionQdisc)->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

// One Table-1 drop-tail bottleneck feeding a per-flow demux, loaded at
// line rate by 64 interleaved flows in the session's id shapes (video
// 0..3, background 1000+j).  Each iteration sends one packet and runs the
// link for one transmission time, so steady state is one send -> tx-done
// -> delivery per iteration with ~40 ms of packets in flight; both per-flow
// lookups (bottleneck counters, exit demux) see a different flow almost
// every packet.
void BM_BottleneckManyFlows(benchmark::State& state) {
  constexpr std::size_t kFlows = 64;
  std::vector<FlowId> flows;
  for (FlowId k = 0; k < 4; ++k) flows.push_back(k);
  for (FlowId j = 0; flows.size() < kFlows; ++j) flows.push_back(1000 + j);
  Scheduler sched;
  Link bottleneck(sched, LinkConfig{3.7e6, SimTime::millis(40), 50});
  FlowDemux demux;
  std::uint64_t delivered = 0;
  for (const FlowId flow : flows) {
    demux.register_flow(flow, [&delivered](const Packet&) { ++delivered; });
  }
  bottleneck.set_receiver(&demux);
  const SimTime tx = transmission_time(kDataPacketBytes, 3.7e6);
  Packet p;
  p.size_bytes = kDataPacketBytes;
  std::size_t next = 0;
  for (auto _ : state) {
    next = (next + 37) % kFlows;  // 37 is coprime to 64: every flow in turn
    p.flow = flows[next];
    ++p.seq;
    bottleneck.send(p);
    sched.run_until(sched.now() + tx);
  }
  benchmark::DoNotOptimize(delivered);
  if (bottleneck.total_drops() != 0) state.SkipWithError("bottleneck dropped");
  bench::set_items_per_iteration(state, 1);
}
BENCHMARK(BM_BottleneckManyFlows);

void BM_TcpChainBuildAndSolve(benchmark::State& state) {
  for (auto _ : state) {
    TcpChainParams params;
    params.loss_rate = 0.02;
    params.rtt_s = 0.2;
    params.to_ratio = 2.0;
    params.wmax = static_cast<int>(state.range(0));
    const TcpFlowChain chain(params);
    benchmark::DoNotOptimize(chain.achievable_throughput_pps());
    state.counters["states"] = static_cast<double>(chain.num_states());
  }
}
BENCHMARK(BM_TcpChainBuildAndSolve)->Arg(12)->Arg(20)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The alias fast path at K = 1..4 flows (K = 2 is the CI-guarded point).
// Items are counted consumptions, as before the fast path existed.
void BM_ComposedMonteCarlo(benchmark::State& state) {
  const ComposedParams params = composed_setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DmpModelMonteCarlo mc(params, 5, SamplerMode::kAlias);
    const auto result = mc.run(200'000, 20'000);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(state, 200'000);
}
BENCHMARK(BM_ComposedMonteCarlo)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The historical event loop (golden-pin compatible) for reference; the
// gap between this and BM_ComposedMonteCarlo/2 is the fast-path speedup.
void BM_ComposedMonteCarloCompat(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  for (auto _ : state) {
    DmpModelMonteCarlo mc(params, 5);
    const auto result = mc.run(200'000, 20'000);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(state, 200'000);
}
BENCHMARK(BM_ComposedMonteCarloCompat)->Unit(benchmark::kMillisecond);

// Deterministic sharded estimation: 8 shards on however many cores the
// runner grants (thread count does not change the output, only the time).
// The shards run on pool workers, so the rate is per wall second: the main
// thread's CPU time would overstate it by about the worker count.
void BM_ComposedMonteCarloSharded(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  const DmpModelMonteCarlo mc(params, 5, SamplerMode::kAlias);
  for (auto _ : state) {
    const auto result = mc.run_sharded(8, 200'000);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(state, 8 * 200'000);
}
BENCHMARK(BM_ComposedMonteCarloSharded)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Exact product-chain solve (build + Gauss-Seidel to 1e-13) on a K = 2,
// wmax = 3 cell of the model_sweep catalog: 11,025 states.
void BM_ComposedChainExact(benchmark::State& state) {
  TcpChainParams flow;
  flow.loss_rate = 0.02;
  flow.rtt_s = 0.2;
  flow.to_ratio = 4.0;
  flow.wmax = 3;
  ComposedParams params;
  params.flows.assign(2, flow);
  params.mu_pps = 24.0;
  params.tau_s = 1.0;
  for (auto _ : state) {
    const ComposedChainExact exact(params);
    benchmark::DoNotOptimize(exact.late_fraction());
    state.counters["states"] = static_cast<double>(exact.num_states());
  }
}
BENCHMARK(BM_ComposedChainExact)->Unit(benchmark::kMillisecond);

// Stored-video finite-horizon engine on the alias fast path; items are
// consumed video packets.
void BM_StoredVideoMonteCarlo(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  constexpr std::int64_t kVideoPackets = 100'000;
  constexpr std::uint64_t kReps = 4;
  for (auto _ : state) {
    const auto result = stored_video_late_fraction(
        params, kVideoPackets, kReps, 7, SamplerMode::kAlias);
    benchmark::DoNotOptimize(result.late_fraction);
  }
  bench::set_items_per_iteration(
      state, static_cast<std::int64_t>(kReps) * kVideoPackets);
}
BENCHMARK(BM_StoredVideoMonteCarlo)->Unit(benchmark::kMillisecond);

// Engine construction against a warm chain cache: after the first
// iteration every probe-style rebuild is a hash lookup, not a BFS + solve.
void BM_ChainCacheConstruction(benchmark::State& state) {
  const ComposedParams params = composed_setup(2);
  for (auto _ : state) {
    DmpModelMonteCarlo mc(params, 5, SamplerMode::kAlias);
    benchmark::DoNotOptimize(&mc);
  }
  state.counters["cache_hits"] =
      static_cast<double>(chain_cache_stats().hits);
}
BENCHMARK(BM_ChainCacheConstruction);

}  // namespace

BENCHMARK_MAIN();
