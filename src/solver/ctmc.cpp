#include "solver/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace dmp {

namespace {

constexpr std::uint32_t kSliceRows = 4;

// Two doubles side by side (a GCC/Clang vector extension).  Every
// arithmetic operation acts on each lane exactly as the scalar IEEE
// operation would, so lane r of a slice sum is bit-for-bit row r's sum.
using Pair = double __attribute__((vector_size(16)));

inline Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

// Inflow of the four rows of a non-sequential slice: rows 0-1 and 2-3.
struct SliceSums {
  Pair lo;
  Pair hi;
};

// Uniform slice: row r reads x[src[c] + r] at rate[c].
inline SliceSums uniform_inflow(const std::uint32_t* src, const double* rate,
                                std::uint32_t width, const double* x) {
  SliceSums sums{{0.0, 0.0}, {0.0, 0.0}};
  for (std::uint32_t c = 0; c < width; ++c) {
    const double* p = x + src[c];
    const Pair q = {rate[c], rate[c]};
    sums.lo += load_pair(p) * q;
    sums.hi += load_pair(p + 2) * q;
  }
  return sums;
}

// Lanes slice: entry 4c + r belongs to row r.
inline SliceSums lanes_inflow(const std::uint32_t* src, const double* rate,
                              std::uint32_t width, const double* x) {
  SliceSums sums{{0.0, 0.0}, {0.0, 0.0}};
  for (std::uint32_t c = 0; c < width; ++c, src += 4, rate += 4) {
    const Pair lo = {x[src[0]], x[src[1]]};
    const Pair hi = {x[src[2]], x[src[3]]};
    sums.lo += lo * load_pair(rate);
    sums.hi += hi * load_pair(rate + 2);
  }
  return sums;
}

// Inflow of one row-contiguous row.
inline double row_inflow(const std::uint32_t* src, const double* rate,
                         std::uint32_t width, const double* x) {
  double inflow = 0.0;
  for (std::uint32_t c = 0; c < width; ++c) inflow += x[src[c]] * rate[c];
  return inflow;
}

}  // namespace

CtmcBuilder::CtmcBuilder(std::uint32_t num_states) : n_(num_states) {}

void CtmcBuilder::add_transition(std::uint32_t from, std::uint32_t to,
                                 double rate) {
  if (from >= n_ || to >= n_) {
    throw std::out_of_range{"CTMC transition endpoint out of range"};
  }
  if (rate < 0.0 || !std::isfinite(rate)) {
    throw std::invalid_argument{"CTMC transition rate must be finite and >= 0"};
  }
  if (rate == 0.0 || from == to) return;
  triplets_.push_back(Triplet{from, to, rate});
}

Ctmc CtmcBuilder::build() && {
  // Sort by destination (then source) so each row's incoming edges are
  // contiguous in ascending source order and duplicate edges are adjacent.
  // The packed key orders exactly as comparing (to, from) field by field.
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return (std::uint64_t{a.to} << 32 | a.from) <
                     (std::uint64_t{b.to} << 32 | b.from);
            });

  Ctmc chain;
  chain.n_ = n_;
  chain.exit_rate_.assign(n_, 0.0);
  chain.slices_.reserve((static_cast<std::size_t>(n_) + kSliceRows - 1) /
                        kSliceRows);

  // Pass 1, linear in the edges: merge duplicates in place (merged edges
  // overwrite triplets already read), accumulate exit rates in edge order,
  // and classify each slice.
  const Triplet* in = triplets_.data();
  const Triplet* const end = in + triplets_.size();
  Triplet* merged = triplets_.data();
  std::size_t stored = 0;
  for (std::uint32_t j0 = 0; j0 < n_; j0 += kSliceRows) {
    const std::uint32_t rows = std::min(kSliceRows, n_ - j0);
    const Triplet* row[kSliceRows] = {};
    std::uint32_t len[kSliceRows] = {0, 0, 0, 0};
    std::uint32_t width = 0;
    bool sequential = rows < kSliceRows;
    for (std::uint32_t r = 0; r < rows; ++r) {
      row[r] = merged;
      while (in != end && in->to == j0 + r) {
        Triplet t = *in++;
        while (in != end && in->to == t.to && in->from == t.from) {
          t.rate += (in++)->rate;
        }
        chain.exit_rate_[t.from] += t.rate;
        // Reads an earlier row of this slice, which this sweep has already
        // updated: the rows cannot be summed side by side.
        if (t.from >= j0 && t.from < j0 + r) sequential = true;
        *merged++ = t;
      }
      len[r] = static_cast<std::uint32_t>(merged - row[r]);
      width = std::max(width, len[r]);
    }
    bool uniform = !sequential;
    for (std::uint32_t r = 1; uniform && r < rows; ++r) {
      uniform = len[r] == len[0];
      for (std::uint32_t c = 0; uniform && c < width; ++c) {
        uniform = row[r][c].from == row[0][c].from + r &&
                  row[r][c].rate == row[0][c].rate;
      }
    }
    const Ctmc::SliceKind kind = sequential ? Ctmc::SliceKind::kSequential
                                 : uniform  ? Ctmc::SliceKind::kUniform
                                            : Ctmc::SliceKind::kLanes;
    chain.slices_.push_back(
        Ctmc::Slice{stored, width, static_cast<std::uint8_t>(rows), kind});
    stored += std::size_t{uniform ? 1 : rows} * width;
  }

  // Pass 2: lay the merged edges out.  Entry (r, c) of a slice goes to
  // r * row_step + c * col_step; a uniform slice stores row 0 only.
  chain.src_.resize(stored);
  chain.rate_.resize(stored);
  const Triplet* edge = triplets_.data();
  std::uint32_t j0 = 0;
  for (const Ctmc::Slice& slice : chain.slices_) {
    const bool sequential = slice.kind == Ctmc::SliceKind::kSequential;
    const bool uniform = slice.kind == Ctmc::SliceKind::kUniform;
    const std::size_t row_step = sequential ? slice.width : 1;
    const std::size_t col_step = sequential || uniform ? 1 : kSliceRows;
    std::uint32_t* src = chain.src_.data() + slice.off;
    double* rate = chain.rate_.data() + slice.off;
    for (std::uint32_t r = 0; r < slice.rows; ++r) {
      const bool write = r == 0 || !uniform;
      std::size_t k = r * row_step;
      std::uint32_t c = 0;
      for (; edge != merged && edge->to == j0 + r; ++edge, ++c, k += col_step) {
        if (write) {
          src[k] = edge->from;
          rate[k] = edge->rate;
        }
      }
      // Pad to the slice width with rate-0.0 entries reading the row itself.
      for (; write && c < slice.width; ++c, k += col_step) {
        src[k] = j0 + r;
        rate[k] = 0.0;
      }
    }
    j0 += kSliceRows;
  }
  std::vector<Triplet>().swap(triplets_);
  return chain;
}

void Ctmc::slice_inflow(const Slice& slice, const double* x,
                        double* out) const {
  const std::uint32_t* src = src_.data() + slice.off;
  const double* rate = rate_.data() + slice.off;
  if (slice.kind == SliceKind::kSequential) {
    for (std::uint32_t r = 0; r < slice.rows; ++r) {
      out[r] = row_inflow(src + r * slice.width, rate + r * slice.width,
                          slice.width, x);
    }
    return;
  }
  const SliceSums sums = slice.kind == SliceKind::kUniform
                             ? uniform_inflow(src, rate, slice.width, x)
                             : lanes_inflow(src, rate, slice.width, x);
  store_pair(out, sums.lo);
  store_pair(out + 2, sums.hi);
}

std::vector<double> Ctmc::steady_state_gauss_seidel(double tol,
                                                    std::size_t max_sweeps) const {
  if (n_ == 0) throw std::invalid_argument{"empty chain"};
  for (std::uint32_t s = 0; s < n_; ++s) {
    if (exit_rate_[s] <= 0.0) {
      throw std::invalid_argument{
          "CTMC has an absorbing state; no stationary distribution"};
    }
  }
  std::vector<double> pi(n_, 1.0 / static_cast<double>(n_));
  double* const x = pi.data();
  const double* const exit = exit_rate_.data();
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double delta = 0.0;
    double total = 0.0;
    std::uint32_t j = 0;
    for (const Slice& slice : slices_) {
      const std::uint32_t* src = src_.data() + slice.off;
      const double* rate = rate_.data() + slice.off;
      if (slice.kind == SliceKind::kSequential) {
        // Each row must see the rows above it already updated.
        for (std::uint32_t r = 0; r < slice.rows; ++r, ++j) {
          const double updated =
              row_inflow(src, rate, slice.width, x) / exit[j];
          src += slice.width;
          rate += slice.width;
          delta += std::abs(updated - x[j]);
          total += updated;
          x[j] = updated;
        }
        continue;
      }
      // No row of this slice reads an earlier one: sum all four, then
      // write them back in row order.
      const SliceSums sums = slice.kind == SliceKind::kUniform
                                 ? uniform_inflow(src, rate, slice.width, x)
                                 : lanes_inflow(src, rate, slice.width, x);
      double updated[kSliceRows] = {};
      store_pair(updated, sums.lo / load_pair(exit + j));
      store_pair(updated + 2, sums.hi / load_pair(exit + j + 2));
      for (std::uint32_t r = 0; r < kSliceRows; ++r, ++j) {
        delta += std::abs(updated[r] - x[j]);
        total += updated[r];
        x[j] = updated[r];
      }
    }
    // Normalize each sweep; Gauss-Seidel on the unnormalized balance
    // equations drifts in scale otherwise.
    if (total <= 0.0) throw std::runtime_error{"Gauss-Seidel collapsed to zero"};
    for (double& v : pi) v /= total;
    if (delta / total < tol) return pi;
  }
  throw std::runtime_error{"Gauss-Seidel did not converge"};
}

std::vector<double> Ctmc::steady_state_power(double tol,
                                             std::size_t max_iters) const {
  if (n_ == 0) throw std::invalid_argument{"empty chain"};
  double lambda = 0.0;
  for (std::uint32_t s = 0; s < n_; ++s) {
    if (exit_rate_[s] <= 0.0) {
      throw std::invalid_argument{
          "CTMC has an absorbing state; no stationary distribution"};
    }
    lambda = std::max(lambda, exit_rate_[s]);
  }
  lambda *= 1.02;  // keep the uniformized chain aperiodic

  std::vector<double> pi(n_, 1.0 / static_cast<double>(n_));
  std::vector<double> next(n_, 0.0);
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    double delta = 0.0;
    std::uint32_t j = 0;
    for (const Slice& slice : slices_) {
      double inflow[kSliceRows] = {};
      slice_inflow(slice, pi.data(), inflow);
      for (std::uint32_t r = 0; r < slice.rows; ++r, ++j) {
        next[j] = pi[j] * (1.0 - exit_rate_[j] / lambda) + inflow[r] / lambda;
        delta += std::abs(next[j] - pi[j]);
      }
    }
    pi.swap(next);
    if (delta < tol) return pi;
  }
  throw std::runtime_error{"power iteration did not converge"};
}

double Ctmc::balance_residual(const std::vector<double>& pi) const {
  double worst = 0.0;
  std::uint32_t j = 0;
  for (const Slice& slice : slices_) {
    double inflow[kSliceRows] = {};
    slice_inflow(slice, pi.data(), inflow);
    for (std::uint32_t r = 0; r < slice.rows; ++r, ++j) {
      worst = std::max(worst, std::abs(pi[j] * exit_rate_[j] - inflow[r]));
    }
  }
  return worst;
}

}  // namespace dmp
