#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

void Ledger::record(const std::string& reason) {
  ++attempted_;
  if (reason.empty()) return;
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(reason);
}

bool should_stop(std::uint64_t next, std::size_t round, std::size_t min_ops,
                 double elapsed_s, double seconds, double max_seconds) {
  if (round == 0 || next % round != 0) return false;
  const std::size_t whole = (min_ops + round - 1) / round * round;
  return (elapsed_s >= seconds && next >= whole) || elapsed_s >= max_seconds;
}

bool LruModel::access(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it != index_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  if (capacity_ == 0) return false;
  order_.push_front(id);
  index_[id] = order_.begin();
  if (index_.size() > capacity_) {
    index_.erase(order_.back());
    order_.pop_back();
    ++evictions_;
  }
  return false;
}

}  // namespace perfbench
