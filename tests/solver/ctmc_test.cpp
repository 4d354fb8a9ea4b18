#include "solver/ctmc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "model/composed_chain.hpp"
#include "model/tcp_chain.hpp"
#include "util/rng.hpp"

namespace dmp {
namespace {

// Two-state chain: 0 -> 1 at rate a, 1 -> 0 at rate b; pi = (b, a)/(a+b).
TEST(Ctmc, TwoStateClosedForm) {
  CtmcBuilder builder(2);
  builder.add_transition(0, 1, 3.0);
  builder.add_transition(1, 0, 1.5);
  const auto chain = std::move(builder).build();
  const auto pi = chain.steady_state_gauss_seidel();
  EXPECT_NEAR(pi[0], 1.5 / 4.5, 1e-10);
  EXPECT_NEAR(pi[1], 3.0 / 4.5, 1e-10);
  EXPECT_LT(chain.balance_residual(pi), 1e-10);
}

// M/M/1/K queue: pi_n proportional to rho^n.
TEST(Ctmc, Mm1kMatchesClosedForm) {
  const double lambda = 2.0, mu = 3.0;
  const int K = 10;
  CtmcBuilder builder(K + 1);
  for (int n = 0; n < K; ++n) {
    builder.add_transition(static_cast<std::uint32_t>(n),
                           static_cast<std::uint32_t>(n + 1), lambda);
    builder.add_transition(static_cast<std::uint32_t>(n + 1),
                           static_cast<std::uint32_t>(n), mu);
  }
  const auto pi = std::move(builder).build().steady_state_gauss_seidel();

  const double rho = lambda / mu;
  double norm = 0.0;
  for (int n = 0; n <= K; ++n) norm += std::pow(rho, n);
  for (int n = 0; n <= K; ++n) {
    EXPECT_NEAR(pi[static_cast<std::size_t>(n)], std::pow(rho, n) / norm, 1e-9)
        << "state " << n;
  }
}

TEST(Ctmc, PowerAndGaussSeidelAgree) {
  // Random irreducible chain.
  Rng rng(17);
  const std::uint32_t n = 40;
  CtmcBuilder builder(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    builder.add_transition(i, (i + 1) % n, 0.5 + rng.uniform());  // ring: irreducible
    for (int extra = 0; extra < 3; ++extra) {
      const auto j = static_cast<std::uint32_t>(rng.uniform_int(n));
      builder.add_transition(i, j, rng.uniform());
    }
  }
  const auto chain = std::move(builder).build();
  const auto gs = chain.steady_state_gauss_seidel(1e-13);
  const auto pw = chain.steady_state_power(1e-13);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(gs[i], pw[i], 1e-7) << "state " << i;
  }
}

TEST(Ctmc, DistributionSumsToOne) {
  CtmcBuilder builder(3);
  builder.add_transition(0, 1, 1.0);
  builder.add_transition(1, 2, 2.0);
  builder.add_transition(2, 0, 3.0);
  const auto pi = std::move(builder).build().steady_state_gauss_seidel();
  EXPECT_NEAR(pi[0] + pi[1] + pi[2], 1.0, 1e-12);
  // Cycle: pi inversely proportional to exit rates.
  EXPECT_GT(pi[0], pi[1]);
  EXPECT_GT(pi[1], pi[2]);
}

TEST(Ctmc, MergesDuplicateEdges) {
  CtmcBuilder a(2), b(2);
  a.add_transition(0, 1, 1.0);
  a.add_transition(0, 1, 1.0);
  a.add_transition(1, 0, 1.0);
  b.add_transition(0, 1, 2.0);
  b.add_transition(1, 0, 1.0);
  const auto pa = std::move(a).build().steady_state_gauss_seidel();
  const auto pb = std::move(b).build().steady_state_gauss_seidel();
  EXPECT_NEAR(pa[0], pb[0], 1e-12);
}

TEST(Ctmc, IgnoresSelfLoops) {
  CtmcBuilder builder(2);
  builder.add_transition(0, 0, 100.0);  // must not affect the result
  builder.add_transition(0, 1, 1.0);
  builder.add_transition(1, 0, 1.0);
  const auto pi = std::move(builder).build().steady_state_gauss_seidel();
  EXPECT_NEAR(pi[0], 0.5, 1e-12);
}

TEST(Ctmc, RejectsAbsorbingStates) {
  CtmcBuilder builder(2);
  builder.add_transition(0, 1, 1.0);  // state 1 has no exit
  const auto chain = std::move(builder).build();
  EXPECT_THROW(chain.steady_state_gauss_seidel(), std::invalid_argument);
  EXPECT_THROW(chain.steady_state_power(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bit-for-bit differential tests against the plain row-by-row CSR solver.
// ---------------------------------------------------------------------------

struct Edge {
  std::uint32_t from;
  std::uint32_t to;
  double rate;
};

// Incoming-edge CSR with row-by-row Gauss-Seidel and power iteration: the
// reference the sliced solver must reproduce bit for bit.
class CsrOracle {
 public:
  CsrOracle(std::uint32_t n, std::vector<Edge> edges) : n_(n) {
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const Edge& e) {
                                 return e.rate == 0.0 || e.from == e.to;
                               }),
                edges.end());
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.to != b.to) return a.to < b.to;
      return a.from < b.from;
    });
    exit_.assign(n_, 0.0);
    off_.assign(static_cast<std::size_t>(n_) + 1, 0);
    std::size_t idx = 0;
    for (std::uint32_t j = 0; j < n_; ++j) {
      off_[j] = src_.size();
      while (idx < edges.size() && edges[idx].to == j) {
        const std::uint32_t from = edges[idx].from;
        double rate = 0.0;
        while (idx < edges.size() && edges[idx].to == j &&
               edges[idx].from == from) {
          rate += edges[idx].rate;
          ++idx;
        }
        src_.push_back(from);
        rate_.push_back(rate);
        exit_[from] += rate;
      }
    }
    off_[n_] = src_.size();
  }

  std::vector<double> gauss_seidel(double tol, std::size_t max_sweeps) const {
    check_exits();
    std::vector<double> pi(n_, 1.0 / static_cast<double>(n_));
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      double delta = 0.0;
      for (std::uint32_t j = 0; j < n_; ++j) {
        const double updated = inflow(pi, j) / exit_[j];
        delta += std::abs(updated - pi[j]);
        pi[j] = updated;
      }
      double total = 0.0;
      for (double v : pi) total += v;
      if (total <= 0.0) throw std::runtime_error{"Gauss-Seidel collapsed to zero"};
      for (double& v : pi) v /= total;
      if (delta / total < tol) return pi;
    }
    throw std::runtime_error{"Gauss-Seidel did not converge"};
  }

  std::vector<double> power(double tol, std::size_t max_iters) const {
    check_exits();
    double lambda = 0.0;
    for (double e : exit_) lambda = std::max(lambda, e);
    lambda *= 1.02;
    std::vector<double> pi(n_, 1.0 / static_cast<double>(n_));
    std::vector<double> next(n_, 0.0);
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      for (std::uint32_t j = 0; j < n_; ++j) {
        next[j] = pi[j] * (1.0 - exit_[j] / lambda) + inflow(pi, j) / lambda;
      }
      double delta = 0.0;
      for (std::uint32_t j = 0; j < n_; ++j) delta += std::abs(next[j] - pi[j]);
      pi.swap(next);
      if (delta < tol) return pi;
    }
    throw std::runtime_error{"power iteration did not converge"};
  }

  double residual(const std::vector<double>& pi) const {
    double worst = 0.0;
    for (std::uint32_t j = 0; j < n_; ++j) {
      worst = std::max(worst, std::abs(pi[j] * exit_[j] - inflow(pi, j)));
    }
    return worst;
  }

 private:
  void check_exits() const {
    if (n_ == 0) throw std::invalid_argument{"empty chain"};
    for (double e : exit_) {
      if (e <= 0.0) {
        throw std::invalid_argument{
            "CTMC has an absorbing state; no stationary distribution"};
      }
    }
  }

  double inflow(const std::vector<double>& pi, std::uint32_t j) const {
    double sum = 0.0;
    for (std::size_t k = off_[j]; k < off_[j + 1]; ++k) {
      sum += pi[src_[k]] * rate_[k];
    }
    return sum;
  }

  std::uint32_t n_;
  std::vector<std::size_t> off_;
  std::vector<std::uint32_t> src_;
  std::vector<double> rate_;
  std::vector<double> exit_;
};

Ctmc build_chain(std::uint32_t n, const std::vector<Edge>& edges) {
  CtmcBuilder builder(n);
  for (const Edge& e : edges) builder.add_transition(e.from, e.to, e.rate);
  return std::move(builder).build();
}

// A solve's outcome: the distribution's bytes, or the exception it threw.
struct Outcome {
  std::vector<double> pi;
  std::string error;
};

Outcome run(const std::function<std::vector<double>()>& solve) {
  Outcome out;
  try {
    out.pi = solve();
  } catch (const std::invalid_argument& e) {
    out.error = std::string{"invalid_argument: "} + e.what();
  } catch (const std::runtime_error& e) {
    out.error = std::string{"runtime_error: "} + e.what();
  }
  return out;
}

void expect_same_bits(const Outcome& sliced, const Outcome& oracle,
                      const std::string& what) {
  EXPECT_EQ(sliced.error, oracle.error) << what;
  ASSERT_EQ(sliced.pi.size(), oracle.pi.size()) << what;
  if (sliced.pi.empty()) return;  // both threw
  EXPECT_EQ(std::memcmp(sliced.pi.data(), oracle.pi.data(),
                        sliced.pi.size() * sizeof(double)),
            0)
      << what;
}

void expect_same_residual(const Ctmc& chain, const CsrOracle& oracle,
                          const std::vector<double>& pi,
                          const std::string& what) {
  const double a = chain.balance_residual(pi);
  const double b = oracle.residual(pi);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": " << a << " vs " << b;
}

// Gauss-Seidel, power iteration and the residual, all bit for bit.
void expect_matches_oracle(std::uint32_t n, const std::vector<Edge>& edges,
                           double tol, bool with_power,
                           const std::string& what) {
  const Ctmc chain = build_chain(n, edges);
  const CsrOracle oracle(n, edges);
  const Outcome gs = run([&] { return chain.steady_state_gauss_seidel(tol); });
  expect_same_bits(gs, run([&] { return oracle.gauss_seidel(tol, 50000); }),
                   what + " gauss-seidel");
  if (gs.error.empty()) {
    expect_same_residual(chain, oracle, gs.pi, what);
  }
  if (with_power) {
    expect_same_bits(run([&] { return chain.steady_state_power(tol); }),
                     run([&] { return oracle.power(tol, 2000000); }),
                     what + " power");
  }
}

// A random irreducible chain on n states: a backward ring, shift families
// (every i + d -> i at one rate, which the slicer stores as uniform slices),
// `extra` random edges per state (mixed degrees), edges into the next few
// states (forward edges inside a slice), duplicates, self-loops and zero
// rates.
std::vector<Edge> random_edges(std::uint32_t n, std::uint64_t extra,
                               double forward, Rng& rng) {
  std::vector<Edge> edges;
  auto node = [&] { return static_cast<std::uint32_t>(rng.uniform_int(n)); };
  const double ring = 0.5 + rng.uniform();
  for (std::uint32_t i = 0; i < n; ++i) {
    edges.push_back({i, (i + n - 1) % n, ring});
  }
  for (std::uint32_t d = 1; d <= 3 && d < n; ++d) {
    if (!rng.chance(0.7)) continue;
    const double rate = 0.25 + rng.uniform();
    for (std::uint32_t i = 0; i + d < n; ++i) edges.push_back({i + d, i, rate});
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto count = rng.uniform_int(extra + 1);
    for (std::uint64_t e = 0; e < count; ++e) {
      edges.push_back({i, node(), rng.uniform()});
    }
    if (i + 1 < n && rng.chance(forward)) {
      const auto ahead = std::min<std::uint32_t>(
          n - 1, i + 1 + static_cast<std::uint32_t>(rng.uniform_int(3)));
      edges.push_back({i, ahead, rng.uniform()});
    }
  }
  const std::size_t base = edges.size();
  for (std::size_t k = 0; k < base / 8; ++k) {
    const Edge e = edges[rng.uniform_int(base)];
    edges.push_back({e.from, e.to, rng.uniform()});
    if (rng.chance(0.5)) edges.push_back({e.from, e.to, rng.uniform()});
  }
  edges.push_back({node(), node(), 0.0});
  const std::uint32_t loop = node();
  edges.push_back({loop, loop, 3.0});
  return edges;
}

TEST(CtmcDifferential, RandomChainsMatchCsrBitForBit) {
  Rng rng(2007);
  for (std::uint32_t n = 1; n <= 37; ++n) {
    // Sparse (where uniform slices occur), medium, and dense (lanes and
    // sequential slices).
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t extra = rep == 0 ? 0 : rep == 1 ? 2 : 6;
      const double forward = rep == 0 ? 0.02 : 0.15;
      const auto edges = random_edges(n, extra, forward, rng);
      expect_matches_oracle(n, edges, 1e-13, /*with_power=*/true,
                            "n=" + std::to_string(n) + " rep " +
                                std::to_string(rep));
    }
  }
}

TcpChainParams flow_params(double loss, int wmax) {
  TcpChainParams p;
  p.loss_rate = loss;
  p.rtt_s = 0.2;
  p.to_ratio = 4.0;
  p.wmax = wmax;
  return p;
}

std::vector<Edge> flow_edges(const TcpFlowChain& flow) {
  std::vector<Edge> edges;
  for (std::uint32_t s = 0; s < flow.num_states(); ++s) {
    for (const auto& t : flow.transitions_from(s)) {
      edges.push_back({s, t.target, t.rate});
    }
  }
  return edges;
}

TEST(CtmcDifferential, TcpFlowChainMatchesCsrBitForBit) {
  const TcpFlowChain flow(flow_params(0.02, 20));
  const auto edges = flow_edges(flow);
  expect_matches_oracle(flow.num_states(), edges, 1e-12, /*with_power=*/false,
                        "flow chain wmax 20");
  // The chain's own cached solve goes through the same kernel.
  const CsrOracle oracle(flow.num_states(), edges);
  expect_same_bits(Outcome{flow.stationary(), ""},
                   run([&] { return oracle.gauss_seidel(1e-12, 50000); }),
                   "TcpFlowChain::stationary");
}

// The composed product chain's edges, in composed_ctmc's insertion order
// (duplicate edges merge in that order, so it must match).
std::vector<Edge> composed_edges(const ComposedParams& params,
                                 std::uint32_t* num_states) {
  std::vector<std::unique_ptr<TcpFlowChain>> flows;
  for (const auto& fp : params.flows) {
    flows.push_back(std::make_unique<TcpFlowChain>(fp));
  }
  const std::int64_t nmax = params.nmax();
  std::vector<std::uint64_t> stride(flows.size());
  std::uint64_t acc = static_cast<std::uint64_t>(nmax + 1);
  for (std::size_t k = flows.size(); k-- > 0;) {
    stride[k] = acc;
    acc *= flows[k]->num_states();
  }
  *num_states = static_cast<std::uint32_t>(acc);
  std::vector<Edge> edges;
  std::vector<std::uint32_t> x(flows.size(), 0);
  const std::uint64_t tuples = acc / static_cast<std::uint64_t>(nmax + 1);
  for (std::uint64_t tuple = 0; tuple < tuples; ++tuple) {
    std::uint64_t base = 0;
    for (std::size_t k = 0; k < flows.size(); ++k) base += x[k] * stride[k];
    for (std::int64_t n = 0; n <= nmax; ++n) {
      const auto from = static_cast<std::uint32_t>(base + static_cast<std::uint64_t>(n));
      if (n > 0) edges.push_back({from, from - 1, params.mu_pps});
      if (n == nmax) continue;
      for (std::size_t k = 0; k < flows.size(); ++k) {
        for (const auto& t : flows[k]->transitions_from(x[k])) {
          const std::int64_t n2 = std::min<std::int64_t>(n + t.delivered, nmax);
          const std::uint64_t to =
              base + (static_cast<std::uint64_t>(t.target) - x[k]) * stride[k] +
              static_cast<std::uint64_t>(n2);
          edges.push_back({from, static_cast<std::uint32_t>(to), t.rate});
        }
      }
    }
    for (std::size_t k = flows.size(); k-- > 0;) {
      if (++x[k] < flows[k]->num_states()) break;
      x[k] = 0;
    }
  }
  return edges;
}

void expect_composed_matches(const ComposedParams& params,
                             const std::string& what) {
  std::uint32_t n = 0;
  const auto edges = composed_edges(params, &n);
  const Ctmc chain = composed_ctmc(params);
  ASSERT_EQ(chain.num_states(), n) << what;
  const CsrOracle oracle(n, edges);
  const Outcome sliced =
      run([&] { return chain.steady_state_gauss_seidel(1e-13); });
  expect_same_bits(sliced, run([&] { return oracle.gauss_seidel(1e-13, 50000); }),
                   what);
  ASSERT_TRUE(sliced.error.empty()) << what << ": " << sliced.error;
  expect_same_residual(chain, oracle, sliced.pi, what);
}

TEST(CtmcDifferential, ComposedChainsMatchCsrBitForBit) {
  ComposedParams one;
  one.flows = {flow_params(0.02, 8)};
  one.mu_pps = 12.0;
  one.tau_s = 1.0;
  expect_composed_matches(one, "K=1 wmax 8");

  ComposedParams two;
  two.flows.assign(2, flow_params(0.05, 3));
  two.mu_pps = 24.0;
  two.tau_s = 0.5;
  expect_composed_matches(two, "K=2 wmax 3");
}

TEST(CtmcDifferential, ThrowPathsMatchCsr) {
  // Absorbing state.
  const std::vector<Edge> absorbing = {{0, 1, 1.0}, {1, 2, 1.0}};
  expect_matches_oracle(3, absorbing, 1e-12, /*with_power=*/true, "absorbing");
  EXPECT_THROW(build_chain(3, absorbing).steady_state_gauss_seidel(),
               std::invalid_argument);

  // Every inflow underflows to zero after one sweep.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<Edge> collapse = {{0, 1, tiny}, {1, 0, tiny}};
  expect_matches_oracle(2, collapse, 1e-12, /*with_power=*/false, "collapse");
  EXPECT_THROW(build_chain(2, collapse).steady_state_gauss_seidel(),
               std::runtime_error);

  // No convergence within the sweep budget.
  Rng rng(11);
  const auto edges = random_edges(29, 3, 0.1, rng);
  const Ctmc chain = build_chain(29, edges);
  const CsrOracle oracle(29, edges);
  for (std::size_t budget = 0; budget <= 3; ++budget) {
    const Outcome sliced =
        run([&] { return chain.steady_state_gauss_seidel(1e-13, budget); });
    EXPECT_EQ(sliced.error, "runtime_error: Gauss-Seidel did not converge");
    expect_same_bits(sliced,
                     run([&] { return oracle.gauss_seidel(1e-13, budget); }),
                     "budget " + std::to_string(budget));
    expect_same_bits(run([&] { return chain.steady_state_power(1e-13, budget); }),
                     run([&] { return oracle.power(1e-13, budget); }),
                     "power budget " + std::to_string(budget));
  }
}

TEST(Ctmc, RejectsInvalidTransitions) {
  CtmcBuilder builder(2);
  EXPECT_THROW(builder.add_transition(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(builder.add_transition(0, 1, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace dmp
