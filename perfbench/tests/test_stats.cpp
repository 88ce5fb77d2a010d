// Unit tests for the benchmark's own arithmetic (perfbench/src/stats.*).
#include <gtest/gtest.h>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, EmptySampleSetIsNullNeverZero) {
  const Sorted s({});
  EXPECT_FALSE(s.at(50).has_value());
  EXPECT_FALSE(s.reportable(50).has_value());
  EXPECT_FALSE(median({}).has_value());
}

TEST(Percentile, InterpolatesBetweenNearestRanks) {
  const Sorted s({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(*s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(*s.at(100), 4.0);
  EXPECT_DOUBLE_EQ(*s.at(50), 2.5);
  EXPECT_DOUBLE_EQ(*median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(beyond_ok(999, 99.0));
  EXPECT_TRUE(beyond_ok(1000, 99.0));
  EXPECT_FALSE(Sorted(iota(999)).reportable(99).has_value());
  EXPECT_TRUE(Sorted(iota(1000)).reportable(99).has_value());
  // The median of 19 samples has 9.5 beyond it: not reportable.
  EXPECT_FALSE(Sorted(iota(19)).reportable(50).has_value());
  EXPECT_TRUE(Sorted(iota(20)).reportable(50).has_value());
}

TEST(Percentile, TailRuleTakesHighestQualifyingPercentile) {
  EXPECT_FALSE(tail_percentile(0).has_value());
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(*tail_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(*tail_percentile(100000), 99.99);
  EXPECT_DOUBLE_EQ(*tail_percentile(5'000'000), 99.99);
}

TEST(Percentile, SummaryKeepsWhatTheBenchmarkReports) {
  const LatencySummary none = summarize({});
  EXPECT_EQ(none.count, 0u);
  EXPECT_FALSE(none.p50 || none.p99 || none.tail_pct || none.tail);

  const LatencySummary s = summarize(iota(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(*s.p50, 500.5);
  EXPECT_DOUBLE_EQ(*s.p99, *Sorted(iota(1000)).at(99));
  EXPECT_DOUBLE_EQ(*s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(*s.tail, *s.p99);
  EXPECT_FALSE(summarize(iota(999)).p99.has_value());
}

TEST(Percentile, PooledWeighsRepetitionsBySampleCount) {
  EXPECT_FALSE(pooled({}, 50).has_value());
  const LatencySummary empty = summarize({});
  EXPECT_FALSE(pooled({&empty}, 50).has_value());

  // One repetition: its own percentiles, to the quantile grid.
  const LatencySummary one = summarize(iota(2000));
  EXPECT_NEAR(*pooled({&one}, 50), *one.p50, 2.0);
  EXPECT_NEAR(*pooled({&one}, 99), *one.p99, 2.0);

  // 3000 samples at 10 and 1000 at 100: the pooled median is 10 however
  // the repetitions are ordered, though each holds the same point count.
  const LatencySummary low = summarize(std::vector<double>(3000, 10.0));
  const LatencySummary high = summarize(std::vector<double>(1000, 100.0));
  EXPECT_DOUBLE_EQ(*pooled({&low, &high}, 50), 10.0);
  EXPECT_DOUBLE_EQ(*pooled({&high, &low}, 50), 10.0);
  EXPECT_DOUBLE_EQ(*pooled({&low, &high}, 80), 100.0);

  // The ten-beyond rule applies to the pooled count: 2 x 500 samples
  // qualify p99, one alone does not.
  const LatencySummary half = summarize(iota(500));
  EXPECT_FALSE(pooled({&half}, 99).has_value());
  EXPECT_TRUE(pooled({&half, &half}, 99).has_value());
}

TEST(Fractions, FailedFraction) {
  EXPECT_FALSE(failed_frac(0, 0).has_value());
  EXPECT_DOUBLE_EQ(*failed_frac(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(*failed_frac(100, 75), 0.25);
  EXPECT_DOUBLE_EQ(*failed_frac(100, 0), 1.0);
  // More successes than attempts (duplicate replies) clamp to none failed.
  EXPECT_DOUBLE_EQ(*failed_frac(100, 120), 0.0);
}

TEST(Fractions, GeneratorShortfall) {
  EXPECT_FALSE(shortfall_frac(10, 0.0, 10.0).has_value());
  EXPECT_FALSE(shortfall_frac(10, 100.0, 0.0).has_value());
  EXPECT_DOUBLE_EQ(*shortfall_frac(1000, 100.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(*shortfall_frac(250, 100.0, 10.0), 0.75);
  EXPECT_LT(*shortfall_frac(1100, 100.0, 10.0), 0.0);  // ran ahead
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end, bool nested) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.nested = nested;
  return s;
}

TEST(SelfTime, SubtractsNestedChildren) {
  // Handler [0, 100) with two sends inside it, one of which has its own
  // nested child.
  const std::vector<Span> spans = {
      span(1, 0, 0, 100, false),
      span(2, 1, 10, 30, true),
      span(3, 1, 50, 60, true),
      span(4, 3, 52, 55, true),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10 - 3);
  EXPECT_EQ(self[3], 3);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<Span> spans = {
      span(1, 0, 100, 200, false),
      span(2, 1, 90, 120, true),   // clipped to [100, 120)
      span(3, 1, 110, 140, true),  // overlaps the first: union [100, 140)
      span(4, 1, 190, 230, true),  // clipped to [190, 200)
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
}

TEST(SelfTime, CausalChildrenSubtractNothing) {
  // A message handled later (or on another worker, overlapping in time)
  // was caused by span 1 but did not run inside it.
  const std::vector<Span> spans = {
      span(1, 0, 0, 100, false),
      span(2, 1, 50, 150, false),
      span(3, 99, 10, 20, true),  // unknown parent: ignored
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100);
  EXPECT_EQ(self[1], 100);
  EXPECT_EQ(self[2], 10);
}

}  // namespace
}  // namespace perfbench
