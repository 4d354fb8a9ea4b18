// Sparse continuous-time Markov chain representation and steady-state
// solvers (the TANGRAM-II substitute).
//
// The chain is stored by incoming transitions per state plus per-state exit
// rates — exactly what both solvers need:
//   * Gauss-Seidel sweeps on the balance equations
//         pi_j * exit_j = sum_i pi_i * q_ij
//     (fast on the stiff chains arising here), and
//   * uniformized power iteration as a slower, assumption-free fallback.
//
// Slice layout.  States are cut into slices of 4 consecutive rows (the last
// slice may hold fewer).  Every row of a slice is padded to the slice's
// widest row with (src = the row itself, rate = 0.0) entries, and the slice
// is stored in one of three forms:
//   * uniform:    row r's c-th source is src[c] + r at rate rate[c] for all
//                 four rows, so one (src, rate) pair is stored per column.
//                 This is the common case in the Kronecker-structured
//                 composed chain, whose flow rates do not depend on N.
//   * lanes:      four independent rows, interleaved column by column:
//                 entry 4c + r is row r's c-th source.
//   * sequential: some row reads an earlier row of the same slice (or the
//                 slice is the short last one); rows are stored one after
//                 another and solved row by row.
// Uniform and lanes slices never read an earlier row of their own slice, so
// their four sums may be formed side by side before any row is written.
//
// Bit identity.  The sliced sweep returns exactly the bits of a plain
// row-by-row sweep over per-row incoming-edge lists (tests/solver/
// ctmc_test.cpp keeps one as its oracle):
//   * each row sums its terms pi[src] * rate in ascending source order, in
//     its own accumulator, starting from +0.0;
//   * a padding term is finite * 0.0 = +0.0, and x + 0.0 == x for every
//     non-negative x, so padding never changes a sum;
//   * within uniform/lanes slices a row reads only later rows of its slice,
//     which are still at their previous-sweep values, as they would be when
//     the rows run one at a time; sequential slices run one at a time;
//   * delta and the normalizing total accumulate in row order; the total is
//     fused into the sweep (after a sweep every entry holds its updated
//     value, so summing the updated values in row order is the same sum).
#pragma once

#include <cstdint>
#include <vector>

namespace dmp {

class CtmcBuilder;

class Ctmc {
 public:
  std::uint32_t num_states() const { return n_; }

  // Steady-state distribution via Gauss-Seidel; throws if the chain has a
  // state with no exit (absorbing) or fails to converge.
  std::vector<double> steady_state_gauss_seidel(double tol = 1e-12,
                                                std::size_t max_sweeps = 50000) const;

  // Steady-state via uniformized power iteration.
  std::vector<double> steady_state_power(double tol = 1e-12,
                                         std::size_t max_iters = 2000000) const;

  double exit_rate(std::uint32_t state) const { return exit_rate_[state]; }

  // Residual max_j |pi_j * exit_j - inflow_j|; diagnostic for tests.
  double balance_residual(const std::vector<double>& pi) const;

 private:
  friend class CtmcBuilder;

  enum class SliceKind : std::uint8_t { kUniform, kLanes, kSequential };
  // Slice i covers rows 4i .. 4i + rows - 1; its entries start at
  // src_[off] / rate_[off] (width of them if uniform, rows * width else).
  struct Slice {
    std::size_t off;
    std::uint32_t width;
    std::uint8_t rows;
    SliceKind kind;
  };

  // Inflow of every row of `slice`, read from `x` with no row written.
  void slice_inflow(const Slice& slice, const double* x, double* out) const;

  std::uint32_t n_ = 0;
  std::vector<Slice> slices_;
  std::vector<std::uint32_t> src_;
  std::vector<double> rate_;
  std::vector<double> exit_rate_;
};

// Accumulates (from, to, rate) triplets; duplicate edges are merged.
// Self-loops are ignored (they do not affect a CTMC's stationary law).
class CtmcBuilder {
 public:
  explicit CtmcBuilder(std::uint32_t num_states);

  void add_transition(std::uint32_t from, std::uint32_t to, double rate);

  Ctmc build() &&;

 private:
  struct Triplet {
    std::uint32_t from;
    std::uint32_t to;
    double rate;
  };
  std::uint32_t n_;
  std::vector<Triplet> triplets_;
};

}  // namespace dmp
