// Exact-percentile sample sets, the one latency type behind the
// metrics layer, the block tracer and every report.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace predis {

/// Stores every sample; computes exact percentiles on demand. Fine for
/// the sample volumes our simulations produce (≤ millions).
class Percentiles {
 public:
  void add(double v) { samples_.push_back(v); }

  std::size_t count() const { return samples_.size(); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
  }

  /// p in [0, 100], interpolated between the nearest ranks of a sorted
  /// copy. Callers reading several percentiles of one set should sort
  /// once and use of_sorted().
  double percentile(double p) const {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return of_sorted(sorted, p);
  }

  /// percentile(p) of samples already sorted ascending.
  static double of_sorted(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace predis
