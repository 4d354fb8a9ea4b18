#include "model/composed_chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/chain_cache.hpp"
#include "solver/ctmc.hpp"
#include "util/parallel.hpp"
#include "util/seed_stream.hpp"

namespace dmp {

namespace {

// Seed-stream domain for Monte-Carlo shards (kind 17 of the registry in
// exp/plan.hpp; kinds >= 16 are reserved for library-internal streams).
constexpr std::uint64_t kShardDomain = 17ull << 32;

// Number of consecutive consumption events before the next flow event,
// capped at `remaining`.  Each event is independently a consumption with
// probability q = mu / (mu + active), so the count is Geometric(1 - q);
// inverting the tail with one uniform replaces up to `remaining`
// per-event draws.  Truncating at the cap is exact: holding times are
// memoryless, so the caller may redraw fresh on the next call.
std::uint64_t geometric_consumptions(double q, double u,
                                     std::uint64_t remaining) {
  if (u <= 0.0) return remaining;  // tail of the tail: beyond any cap
  const double j = std::floor(std::log(u) / std::log(q));
  if (j >= static_cast<double>(remaining)) return remaining;
  return static_cast<std::uint64_t>(j);
}

}  // namespace

std::int64_t ComposedParams::nmax() const {
  return static_cast<std::int64_t>(std::llround(mu_pps * tau_s));
}

// ---------------------------------------------------------------------------
// Exact product-chain backend
// ---------------------------------------------------------------------------

Ctmc composed_ctmc(const ComposedParams& params) {
  if (params.flows.empty()) throw std::invalid_argument{"need >= 1 flow"};
  if (params.mu_pps <= 0.0) throw std::invalid_argument{"mu must be positive"};
  const std::int64_t nmax = params.nmax();
  if (nmax < 1) throw std::invalid_argument{"Nmax = mu*tau must be >= 1"};

  std::vector<std::shared_ptr<const TcpFlowChain>> chains;
  chains.reserve(params.flows.size());
  std::uint64_t flow_product = 1;
  for (const auto& fp : params.flows) {
    chains.push_back(shared_flow_chain(fp));
    flow_product *= chains.back()->num_states();
  }
  const std::uint64_t total =
      flow_product * static_cast<std::uint64_t>(nmax + 1);
  // The builder holds 16 B per edge until it lays the chain out in 4-row
  // slices (12 B per stored entry; a uniform slice, the common case here,
  // stores one entry per four edges), and Gauss-Seidel sweeps the whole
  // chain thousands of times; beyond a couple of million states the Monte-
  // Carlo backend is the right tool.
  if (total > 2'000'000ull) {
    throw std::invalid_argument{
        "exact composed chain too large; use DmpModelMonteCarlo"};
  }

  const std::size_t kflows = chains.size();
  // Mixed-radix index: (((x_0 * n_1 + x_1) ... ) * (nmax+1)) + N.
  std::vector<std::uint64_t> stride(kflows);
  std::uint64_t acc = static_cast<std::uint64_t>(nmax + 1);
  for (std::size_t k = kflows; k-- > 0;) {
    stride[k] = acc;
    acc *= chains[k]->num_states();
  }

  CtmcBuilder builder(static_cast<std::uint32_t>(total));
  // Enumerate composed states by iterating flow-state tuples and N.
  std::vector<std::uint32_t> x(kflows, 0);
  while (true) {
    std::uint64_t base = 0;
    for (std::size_t k = 0; k < kflows; ++k) base += x[k] * stride[k];

    for (std::int64_t n = 0; n <= nmax; ++n) {
      const auto from = static_cast<std::uint32_t>(base + static_cast<std::uint64_t>(n));
      // Consumption: N -> max(N-1, 0); at N = 0 the state is unchanged
      // (self-loop, dropped) but the consumed packet is late — the metric
      // reads P(N = 0), so no edge is needed.
      if (n > 0) {
        builder.add_transition(from, from - 1, params.mu_pps);
      }
      // Flow transitions, frozen at N = Nmax.
      if (n == nmax) continue;
      for (std::size_t k = 0; k < kflows; ++k) {
        for (const auto& t : chains[k]->transitions_from(x[k])) {
          const std::int64_t n2 =
              std::min<std::int64_t>(n + t.delivered, nmax);
          const std::uint64_t to = base +
                                   (static_cast<std::uint64_t>(t.target) -
                                    static_cast<std::uint64_t>(x[k])) *
                                       stride[k] +
                                   static_cast<std::uint64_t>(n2);
          builder.add_transition(from, static_cast<std::uint32_t>(to), t.rate);
        }
      }
    }

    // Advance the flow-state tuple (odometer).
    std::size_t k = kflows;
    while (k-- > 0) {
      if (++x[k] < chains[k]->num_states()) break;
      x[k] = 0;
      if (k == 0) {
        k = SIZE_MAX;
        break;
      }
    }
    if (k == SIZE_MAX) break;
  }

  return std::move(builder).build();
}

ComposedChainExact::ComposedChainExact(const ComposedParams& params) {
  const Ctmc chain = composed_ctmc(params);
  num_states_ = chain.num_states();

  const auto pi = chain.steady_state_gauss_seidel(1e-13);

  const std::int64_t nmax = params.nmax();
  n_marginal_.assign(static_cast<std::size_t>(nmax + 1), 0.0);
  for (std::uint64_t s = 0; s < pi.size(); ++s) {
    n_marginal_[s % static_cast<std::uint64_t>(nmax + 1)] += pi[s];
  }
  late_fraction_ = n_marginal_[0];
}

// ---------------------------------------------------------------------------
// Stored-video finite-horizon Monte Carlo
// ---------------------------------------------------------------------------

namespace {

// One alias-mode replication: the fast-path equivalent of the event loop
// below.  Before playback starts only flow events change state; after tau
// the event *times* no longer matter (nothing else is gated on the clock),
// so consecutive consumptions collapse into geometric bulk draws exactly
// as in DmpModelMonteCarlo::advance_alias.
double stored_video_replication_alias(
    const ComposedParams& params,
    const std::vector<std::shared_ptr<const TcpFlowChain>>& chains,
    std::int64_t video_packets, Rng& rng) {
  std::vector<std::uint32_t> state;
  state.reserve(chains.size());
  for (const auto& chain : chains) state.push_back(chain->initial_state());

  auto active_rate = [&] {
    double active = 0.0;
    for (std::size_t k = 0; k < chains.size(); ++k) {
      active += chains[k]->exit_rate(state[k]);
    }
    return active;
  };
  std::int64_t delivered = 0;
  auto flow_event = [&](double active) {
    double x = rng.uniform() * active;
    std::size_t k = 0;
    for (; k + 1 < chains.size(); ++k) {
      const double r = chains[k]->exit_rate(state[k]);
      if (x < r) break;
      x -= r;
    }
    const auto& t = chains[k]->pick_alias(state[k], rng.uniform());
    state[k] = t.target;
    delivered =
        std::min<std::int64_t>(delivered + t.delivered, video_packets);
  };

  // Phase 1: prefetch until playback starts at tau.
  double t = 0.0;
  while (t < params.tau_s) {
    if (delivered >= video_packets) break;  // fully prefetched
    const double active = active_rate();
    const double dt = rng.exponential(1.0 / active);
    if (t + dt >= params.tau_s) break;
    t += dt;
    flow_event(active);
  }

  // Phase 2: playback active.
  std::int64_t consumed = 0;
  std::int64_t late = 0;
  while (consumed < video_packets) {
    if (delivered >= video_packets) {
      // Only consumptions remain and the whole video is buffered: the
      // rest plays on time.
      consumed = video_packets;
      break;
    }
    const double active = active_rate();
    const double q = params.mu_pps / (params.mu_pps + active);
    const auto remaining =
        static_cast<std::uint64_t>(video_packets - consumed);
    const std::uint64_t j =
        geometric_consumptions(q, rng.uniform(), remaining);
    if (j > 0) {
      // Consumption i of the bulk is on time iff consumed + i - 1 <
      // delivered, i.e. the first (delivered - consumed) of them.
      const std::int64_t backlog = delivered - consumed;
      const std::int64_t ontime = std::clamp<std::int64_t>(
          backlog, 0, static_cast<std::int64_t>(j));
      late += static_cast<std::int64_t>(j) - ontime;
      consumed += static_cast<std::int64_t>(j);
    }
    if (consumed >= video_packets) break;
    flow_event(active);
  }
  return static_cast<double>(late) / static_cast<double>(video_packets);
}

// One compat-mode replication: the historical event loop, byte for byte.
double stored_video_replication_compat(
    const ComposedParams& params,
    const std::vector<std::shared_ptr<const TcpFlowChain>>& chains,
    std::int64_t video_packets, Rng& rng) {
  std::vector<std::uint32_t> state;
  for (const auto& chain : chains) state.push_back(chain->initial_state());

  double t = 0.0;
  std::int64_t delivered = 0;
  std::int64_t consumed = 0;
  std::int64_t late = 0;
  while (consumed < video_packets) {
    const bool consuming = t >= params.tau_s;
    const bool sending = delivered < video_packets;
    double total_rate = consuming ? params.mu_pps : 0.0;
    if (sending) {
      for (std::size_t k = 0; k < chains.size(); ++k) {
        total_rate += chains[k]->exit_rate(state[k]);
      }
    }
    if (total_rate <= 0.0) {
      // Everything delivered, playback not yet started: jump to tau.
      t = params.tau_s;
      continue;
    }
    const double dt = rng.exponential(1.0 / total_rate);
    // If playback has not started and this event lands past tau, the
    // consumption process must activate first; restarting the clock at
    // tau is exact because exponential holding times are memoryless.
    if (!consuming && t + dt >= params.tau_s) {
      t = params.tau_s;
      continue;
    }
    t += dt;

    double x = rng.uniform() * total_rate;
    if (consuming && x < params.mu_pps) {
      if (consumed >= delivered) ++late;  // nothing to play: glitch
      ++consumed;
      continue;
    }
    if (consuming) x -= params.mu_pps;
    for (std::size_t k = 0; k < chains.size(); ++k) {
      const double r = chains[k]->exit_rate(state[k]);
      if (x < r || k + 1 == chains.size()) {
        const auto& ts = chains[k]->transitions_from(state[k]);
        double y = rng.uniform() * r;
        for (const auto& tr : ts) {
          if (y < tr.rate || &tr == &ts.back()) {
            state[k] = tr.target;
            delivered = std::min<std::int64_t>(delivered + tr.delivered,
                                               video_packets);
            break;
          }
          y -= tr.rate;
        }
        break;
      }
      x -= r;
    }
  }
  return static_cast<double>(late) / static_cast<double>(video_packets);
}

}  // namespace

StoredVideoResult stored_video_late_fraction(const ComposedParams& params,
                                             std::int64_t video_packets,
                                             std::uint64_t replications,
                                             std::uint64_t seed,
                                             SamplerMode mode) {
  if (params.flows.empty()) throw std::invalid_argument{"need >= 1 flow"};
  if (params.mu_pps <= 0.0) throw std::invalid_argument{"mu must be positive"};
  if (video_packets <= 0) throw std::invalid_argument{"empty video"};
  if (replications == 0) throw std::invalid_argument{"need >= 1 replication"};

  std::vector<std::shared_ptr<const TcpFlowChain>> chains;
  chains.reserve(params.flows.size());
  for (const auto& fp : params.flows) chains.push_back(shared_flow_chain(fp));

  Rng master(seed);
  std::vector<double> per_run;
  per_run.reserve(replications);
  for (std::uint64_t rep = 0; rep < replications; ++rep) {
    Rng rng = master.fork();
    per_run.push_back(
        mode == SamplerMode::kCompat
            ? stored_video_replication_compat(params, chains, video_packets,
                                              rng)
            : stored_video_replication_alias(params, chains, video_packets,
                                             rng));
  }

  StoredVideoResult result;
  result.replications = replications;
  result.ci = confidence_interval(per_run);
  result.late_fraction = result.ci.mean;
  return result;
}

// ---------------------------------------------------------------------------
// Monte-Carlo backend
// ---------------------------------------------------------------------------

DmpModelMonteCarlo::DmpModelMonteCarlo(const ComposedParams& params,
                                       std::uint64_t seed, SamplerMode mode)
    : params_(params),
      nmax_(params.nmax()),
      rng_(seed),
      seed_(seed),
      mode_(mode) {
  if (params.flows.empty()) throw std::invalid_argument{"need >= 1 flow"};
  if (params.mu_pps <= 0.0) throw std::invalid_argument{"mu must be positive"};
  if (nmax_ < 1) throw std::invalid_argument{"Nmax = mu*tau must be >= 1"};
  for (const auto& fp : params.flows) {
    chains_.push_back(shared_flow_chain(fp));
    flow_state_.push_back(chains_.back()->initial_state());
  }
  flow_delivered_.assign(chains_.size(), 0);
  // Start with a full buffer: live streaming begins consuming after the
  // buffer had tau seconds to fill; the warmup discards any residual bias.
  n_ = nmax_;
}

void DmpModelMonteCarlo::step_flow(std::size_t k) {
  const auto& chain = *chains_[k];
  const auto& ts = chain.transitions_from(flow_state_[k]);
  double x = rng_.uniform() * chain.exit_rate(flow_state_[k]);
  for (const auto& t : ts) {
    if (x < t.rate || &t == &ts.back()) {
      flow_state_[k] = t.target;
      if (t.delivered > 0) {
        n_ = std::min<std::int64_t>(n_ + t.delivered, nmax_);
        flow_delivered_[k] += t.delivered;
      }
      return;
    }
    x -= t.rate;
  }
}

bool DmpModelMonteCarlo::step() {
  // Total event rate: consumption + active (non-frozen) flows.
  double total = params_.mu_pps;
  const bool frozen = (n_ == nmax_);
  if (!frozen) {
    for (std::size_t k = 0; k < chains_.size(); ++k) {
      total += chains_[k]->exit_rate(flow_state_[k]);
    }
  }
  double x = rng_.uniform() * total;
  if (x < params_.mu_pps || frozen) {
    // Consumption event.
    if (n_ == 0) {
      ++late_;
      batches_.add(1.0);
    } else {
      --n_;
      batches_.add(0.0);
    }
    early_sum_ += static_cast<double>(n_);
    ++counted_;
    return true;
  }
  x -= params_.mu_pps;
  for (std::size_t k = 0; k < chains_.size(); ++k) {
    const double r = chains_[k]->exit_rate(flow_state_[k]);
    if (x < r || k + 1 == chains_.size()) {
      step_flow(k);
      return false;
    }
    x -= r;
  }
  return false;
}

const DmpModelMonteCarlo::GeomClass& DmpModelMonteCarlo::geom_class_for(
    double active) {
  for (std::size_t i = 0; i < geom_classes_.size(); ++i) {
    if (std::fabs(active - geom_classes_[i].active) <= 1e-9 * active) {
      alias_class_ = i;
      return geom_classes_[i];
    }
  }
  // Degenerate safeguard: the class list is bounded by the number of
  // semantically distinct exit-rate sums (a handful); if pathological
  // parameters ever produce unbounded drift, start over rather than grow.
  if (geom_classes_.size() >= 4096) geom_classes_.clear();
  GeomClass cls;
  cls.active = active;
  const double q = params_.mu_pps / (params_.mu_pps + active);
  // Outcome probabilities: P(J = j) = q^j (1 - q) for j < 32, and the
  // tail P(J >= 32) = q^32 (worth 32 consumptions + a fresh resample).
  std::array<double, 33> prob{};
  double qj = 1.0;
  for (std::size_t j = 0; j < 32; ++j) {
    prob[j] = qj * (1.0 - q);
    qj *= q;
  }
  prob[32] = qj;
  // Vose's stable alias construction, as in TcpFlowChain's tables.
  constexpr std::size_t kN = 33;
  std::array<double, kN> scaled{};
  for (std::size_t j = 0; j < kN; ++j) {
    scaled[j] = prob[j] * static_cast<double>(kN);
  }
  std::array<std::uint8_t, kN> small{}, large{};
  std::size_t nsmall = 0, nlarge = 0;
  for (std::size_t j = 0; j < kN; ++j) {
    if (scaled[j] < 1.0) {
      small[nsmall++] = static_cast<std::uint8_t>(j);
    } else {
      large[nlarge++] = static_cast<std::uint8_t>(j);
    }
  }
  for (std::size_t j = 0; j < kN; ++j) {
    cls.cut[j] = 1.0;
    cls.alias[j] = static_cast<std::uint8_t>(j);
  }
  while (nsmall > 0 && nlarge > 0) {
    const std::uint8_t s = small[--nsmall];
    const std::uint8_t l = large[--nlarge];
    cls.cut[s] = scaled[s];
    cls.alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      small[nsmall++] = l;
    } else {
      large[nlarge++] = l;
    }
  }
  geom_classes_.push_back(cls);
  alias_class_ = geom_classes_.size() - 1;
  return geom_classes_.back();
}

void DmpModelMonteCarlo::advance_alias(std::uint64_t target) {
  const std::size_t kflows = chains_.size();
  exit_now_.resize(kflows);
  for (std::size_t k = 0; k < kflows; ++k) {
    exit_now_[k] = chains_[k]->exit_rate(flow_state_[k]);
  }
  // All mutable state lives in locals for the duration of the loop (the
  // batch-means folds are inline, so nothing here escapes the optimizer's
  // view) and is flushed back to the members once on exit.
  double* const exits = exit_now_.data();
  std::uint32_t* const states = flow_state_.data();
  std::uint64_t* const delivered = flow_delivered_.data();
  const std::int64_t nmax = nmax_;
  std::int64_t n = n_;
  std::uint64_t counted = counted_;
  std::uint64_t late = late_;
  double early_sum = early_sum_;
  double alias_active = alias_active_;
  const GeomClass* cls =
      alias_class_ < geom_classes_.size() ? &geom_classes_[alias_class_]
                                          : nullptr;
  Rng rng = rng_;
  while (counted < target) {
    // While frozen (N = Nmax) the flows make no transitions, so the next
    // event is a consumption with probability 1; it folds into the
    // following geometric bulk (same RNG stream and trajectory: the exit
    // rates — and so the draw — are unchanged while frozen).
    const std::uint64_t forced = (n == nmax) ? 1 : 0;
    double active = 0.0;
    for (std::size_t k = 0; k < kflows; ++k) active += exits[k];
    if (!(std::fabs(active - alias_active) <= 1e-9 * active)) {
      // Exit rates cluster on a handful of values (every round/recovery
      // state leaves at 1/RTT mathematically), but the per-state FP sums
      // differ in the last bits, so an exact-equality lookup would miss on
      // most flow events.  A 1e-9 relative tolerance — orders of magnitude
      // above summation noise, orders below model accuracy — makes the
      // rate class hit whenever the rate is semantically unchanged, and
      // stays deterministic (same trajectory -> same comparisons).
      alias_active = active;
      cls = &geom_class_for(active);
    }
    // Number of consumptions J before the next flow event: geometric with
    // success probability mu / (mu + active), sampled through the rate
    // class's alias table (one uniform; the >= 32 tail adds 32 and
    // resamples, exact by memorylessness).  Truncated at `remaining` — by
    // memorylessness the truncation needs no correction, and a truncated
    // bulk draws no flow event.
    const std::uint64_t remaining = target - counted;
    std::uint64_t j = forced;
    for (;;) {
      const double s = rng.uniform() * 33.0;
      auto col = static_cast<std::uint32_t>(s);
      if (col > 32) col = 32;  // guard the u -> [0,33) edge
      const std::uint32_t d =
          (s - static_cast<double>(col)) < cls->cut[col] ? col
                                                         : cls->alias[col];
      if (d < 32) {
        j += d;
        break;
      }
      j += 32;
      if (j >= remaining) break;
    }
    if (j > remaining) j = remaining;
    if (j > 0) {
      // The first min(j, N) consumptions are on time and walk N down to 0;
      // the rest find an empty buffer.  Equivalent, sample for sample (and
      // in the same order for the batch-means stream), to j singles.
      const auto ontime =
          std::min<std::uint64_t>(j, static_cast<std::uint64_t>(n));
      const std::uint64_t newly_late = j - ontime;
      const double n0 = static_cast<double>(n);
      const double m = static_cast<double>(ontime);
      // Sum of N after each on-time consumption: (n0-1) + ... + (n0-m).
      early_sum += m * n0 - 0.5 * m * (m + 1.0);
      n -= static_cast<std::int64_t>(ontime);
      late += newly_late;
      counted += j;
      batches_.add_many(0.0, ontime);
      batches_.add_many(1.0, newly_late);
    }
    if (counted >= target) break;  // truncated bulk: no flow event drawn
    // Flow event: pick the flow proportionally to its exit rate, then its
    // transition through the per-state alias table in O(1).
    double x = rng.uniform() * active;
    std::size_t k = 0;
    for (; k + 1 < kflows; ++k) {
      if (x < exits[k]) break;
      x -= exits[k];
    }
    const TcpFlowChain& chain = *chains_[k];
    const auto& t = chain.pick_alias(states[k], rng.uniform());
    states[k] = t.target;
    exits[k] = chain.exit_rate(t.target);
    if (t.delivered > 0) {
      n = std::min<std::int64_t>(n + t.delivered, nmax);
      delivered[k] += t.delivered;
    }
  }
  n_ = n;
  counted_ = counted;
  late_ = late;
  early_sum_ = early_sum;
  alias_active_ = alias_active;  // alias_class_ is kept by geom_class_for
  rng_ = rng;
}

void DmpModelMonteCarlo::advance_to(std::uint64_t target) {
  if (mode_ == SamplerMode::kCompat) {
    while (counted_ < target) step();
  } else {
    advance_alias(target);
  }
}

MonteCarloResult DmpModelMonteCarlo::snapshot() const {
  MonteCarloResult result;
  result.consumptions = counted_;
  result.late = late_;
  result.late_fraction =
      static_cast<double>(late_) / static_cast<double>(counted_);
  result.ci = batches_.interval();
  result.mean_early_packets = early_sum_ / static_cast<double>(counted_);
  std::uint64_t delivered_total = 0;
  for (auto d : flow_delivered_) delivered_total += d;
  for (auto d : flow_delivered_) {
    result.flow_share.push_back(delivered_total == 0
                                    ? 0.0
                                    : static_cast<double>(d) /
                                          static_cast<double>(delivered_total));
  }
  return result;
}

MonteCarloResult DmpModelMonteCarlo::run(std::uint64_t consumptions,
                                         std::uint64_t warmup) {
  // Transient: run `warmup` consumptions without counting.
  if (mode_ == SamplerMode::kCompat) {
    std::uint64_t seen = 0;
    while (seen < warmup) seen += step() ? 1 : 0;
  } else {
    advance_alias(counted_ + warmup);
  }

  late_ = 0;
  counted_ = 0;
  early_sum_ = 0.0;
  batches_ = BatchMeans{};
  std::fill(flow_delivered_.begin(), flow_delivered_.end(), 0);

  advance_to(consumptions);
  return snapshot();
}

MonteCarloResult DmpModelMonteCarlo::run_until_decides(
    double threshold, std::uint64_t min_consumptions,
    std::uint64_t max_consumptions) {
  MonteCarloResult result = run(min_consumptions, min_consumptions / 10);
  std::uint64_t target = min_consumptions;
  while (result.consumptions < max_consumptions) {
    const bool decided =
        result.ci.hi() < threshold || result.ci.lo() > threshold;
    // Also stop when the estimate is overwhelmingly far from the threshold.
    if (decided) break;
    target *= 2;
    // Continue the same trajectory: accumulate more consumptions.
    advance_to(target);
    result = snapshot();
  }
  return result;
}

MonteCarloResult DmpModelMonteCarlo::run_sharded(
    std::uint64_t shards, std::uint64_t consumptions_per_shard,
    std::uint64_t warmup_per_shard, std::size_t threads) const {
  if (shards == 0) throw std::invalid_argument{"need >= 1 shard"};
  if (consumptions_per_shard == 0) {
    throw std::invalid_argument{"need >= 1 consumption per shard"};
  }
  if (warmup_per_shard == kAutoWarmup) {
    warmup_per_shard = consumptions_per_shard / 10;
  }

  struct ShardTotals {
    std::uint64_t late = 0;
    std::uint64_t counted = 0;
    double early_sum = 0.0;
    std::vector<std::uint64_t> delivered;
    double fraction = 0.0;
  };

  const SeedStream shard_seeds(seed_, kShardDomain);
  std::uint64_t late = 0;
  std::uint64_t counted = 0;
  double early_sum = 0.0;
  std::vector<std::uint64_t> delivered(chains_.size(), 0);
  std::vector<double> fractions;
  fractions.reserve(shards);

  const OrderedPool pool(threads);
  pool.run_ordered(
      static_cast<std::size_t>(shards),
      [&](std::size_t s) {
        DmpModelMonteCarlo engine(params_, shard_seeds.at(s),
                                  SamplerMode::kAlias);
        engine.run(consumptions_per_shard, warmup_per_shard);
        return ShardTotals{engine.late_, engine.counted_, engine.early_sum_,
                           engine.flow_delivered_,
                           static_cast<double>(engine.late_) /
                               static_cast<double>(engine.counted_)};
      },
      [&](std::size_t, ShardTotals&& shard) {
        late += shard.late;
        counted += shard.counted;
        early_sum += shard.early_sum;
        for (std::size_t k = 0; k < delivered.size(); ++k) {
          delivered[k] += shard.delivered[k];
        }
        fractions.push_back(shard.fraction);
      });

  MonteCarloResult result;
  result.consumptions = counted;
  result.late = late;
  result.late_fraction =
      static_cast<double>(late) / static_cast<double>(counted);
  result.ci = confidence_interval(fractions);
  result.mean_early_packets = early_sum / static_cast<double>(counted);
  std::uint64_t delivered_total = 0;
  for (auto d : delivered) delivered_total += d;
  for (auto d : delivered) {
    result.flow_share.push_back(delivered_total == 0
                                    ? 0.0
                                    : static_cast<double>(d) /
                                          static_cast<double>(delivered_total));
  }
  return result;
}

}  // namespace dmp
