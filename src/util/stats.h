// Streaming statistics used by trace analysis and the evaluation harness
// (trace characteristic tables, fidelity summaries, poll accounting).
#pragma once

#include <cstddef>
#include <limits>

namespace broadway {

/// Single-pass running statistics (Welford's algorithm for variance).
/// Accepts any number of observations; all accessors are valid after at
/// least one observation unless noted.
class OnlineStats {
 public:
  /// Add one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }

  /// Arithmetic mean; 0 when empty.
  double mean() const { return n_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  /// Smallest observation; +inf when empty.
  double min() const { return min_; }

  /// Largest observation; -inf when empty.
  double max() const { return max_; }

  /// Sum of all observations.
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel Welford merge).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace broadway
