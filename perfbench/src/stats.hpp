// The benchmark's own arithmetic: percentile reporting rules, failure
// and shortfall fractions, medians over repetitions, and per-span self
// time. Kept free of any runtime dependency so tests/test_stats.cpp can
// pin every rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A sample set sorted once, read many times. Percentiles interpolate
/// linearly between nearest ranks, the rule predis::Percentiles uses,
/// so probe readings can be cross-checked against the runners' own.
class Sorted {
 public:
  explicit Sorted(std::vector<double> samples);

  std::size_t count() const { return v_.size(); }

  /// p in [0, 100]; nullopt on an empty sample set — never 0.0.
  std::optional<double> at(double p) const;

  /// The p-th percentile only when at least `min_beyond` samples lie
  /// beyond it (see beyond_ok); nullopt otherwise.
  std::optional<double> reportable(double p, std::size_t min_beyond = 10) const;

 private:
  std::vector<double> v_;
};

/// Whether n samples put at least `min_beyond` of them beyond the p-th
/// percentile: n * (100 - p) / 100 >= min_beyond.
bool beyond_ok(std::size_t n, double p, std::size_t min_beyond = 10);

/// The highest of the candidate percentiles 50, 90, 99, 99.9 and 99.99
/// that has at least `min_beyond` samples beyond it; nullopt when even
/// the median does not.
std::optional<double> tail_percentile(std::size_t n,
                                      std::size_t min_beyond = 10);

/// A latency sample set reduced to what the benchmark reports, so a
/// repetition need not keep its samples.
struct LatencySummary {
  /// Quantile points kept per repetition: percentiles 0, 0.1, ..., 100.
  static constexpr std::size_t kPoints = 1001;

  std::size_t count = 0;
  std::optional<double> p50;       ///< nullopt on no samples.
  std::optional<double> p99;       ///< nullopt without 10 samples beyond.
  std::optional<double> tail_pct;  ///< tail_percentile(count).
  std::optional<double> tail;      ///< The value at tail_pct.
  std::vector<double> points;      ///< kPoints quantiles; empty if no samples.
};
LatencySummary summarize(std::vector<double> samples);

/// The p-th percentile of several repetitions' samples taken together:
/// each repetition's quantile points stand for its samples, weighted by
/// its sample count. Subject to the same rule as Sorted::reportable on
/// the pooled count; nullopt otherwise.
std::optional<double> pooled(const std::vector<const LatencySummary*>& reps,
                             double p, std::size_t min_beyond = 10);

/// Share of `attempted` that did not succeed; nullopt when nothing was
/// attempted.
std::optional<double> failed_frac(std::uint64_t attempted,
                                  std::uint64_t succeeded);

/// 1 − submitted ÷ (rate × window): how far an open-loop generator fell
/// behind its schedule. Negative when it ran ahead. nullopt for an
/// empty schedule.
std::optional<double> shortfall_frac(double submitted, double rate_per_s,
                                     double window_s);

/// Median of repeated measurements; nullopt on none.
std::optional<double> median(std::vector<double> values);

/// One timed callback. `parent` is the span that caused it (sent the
/// message, armed the timer) or, when `nested`, the span it ran inside.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no parent.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t node = 0;
  std::uint16_t name = 0;
  std::uint8_t layer = 0;
  bool nested = false;  ///< Ran inside its parent's call, same thread.

  std::int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval covered by its nested children
/// (children clipped to the parent, overlaps counted once). Causal
/// children run outside their parent's call and subtract nothing.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
