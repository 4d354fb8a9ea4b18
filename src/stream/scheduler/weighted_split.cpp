#include "stream/scheduler/weighted_split.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dmp {

WeightedSplit::WeightedSplit(std::size_t num_paths,
                             std::vector<double> weights) {
  if (num_paths == 0) throw std::invalid_argument{"split needs >= 1 path"};
  if (!weights.empty() && weights.size() != num_paths) {
    throw std::invalid_argument{"weights size must match sender count"};
  }
  if (weights.empty()) weights.assign(num_paths, 1.0);
  // A NaN weight makes every deficit compare false (assign_among would
  // recurse forever); an infinite weight or total collapses the split onto
  // one path.
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument{"weights must be finite and non-negative"};
    }
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (!std::isfinite(total) || total <= 0.0) {
    throw std::invalid_argument{"weights must have a positive, finite total"};
  }
  for (double w : weights) weights_.push_back(w / total);
  assigned_.assign(num_paths, 0);
}

std::size_t WeightedSplit::assign_among(const std::vector<char>* allowed) {
  // Deficit (weighted) round-robin: packet n goes to the path furthest
  // behind its target share.  The static-streaming reference digests pin
  // this arithmetic bit for bit.
  const double n1 = static_cast<double>(total_ + 1);
  std::size_t best = 0;
  double best_deficit = -1e300;
  bool found = false;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    if (allowed && !(*allowed)[k]) continue;
    const double deficit = weights_[k] * n1 - static_cast<double>(assigned_[k]);
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = k;
      found = true;
    }
  }
  if (!found) return assign_among(nullptr);  // every path excluded
  ++assigned_[best];
  ++total_;
  return best;
}

}  // namespace dmp
