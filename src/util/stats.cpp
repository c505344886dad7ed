#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace broadway {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double combined = na + nb;
  mean_ += delta * nb / combined;
  m2_ += other.m2_ + delta * delta * na * nb / combined;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace broadway
