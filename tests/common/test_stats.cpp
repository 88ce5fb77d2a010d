#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/metrics.hpp"

namespace predis {
namespace {

TEST(Percentiles, MedianOfOddSet) {
  Percentiles p;
  for (double v : {5.0, 1.0, 3.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.median(), 3.0);
}

TEST(Percentiles, InterpolatesBetweenRanks) {
  Percentiles p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 10.0);
}

TEST(Percentiles, EmptyIsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
}

TEST(Percentiles, SingleSampleClampsEveryPercentile) {
  Percentiles p;
  p.add(37.25);
  for (double q : {0.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(p.percentile(q), 37.25) << "p" << q;
  }
}

TEST(Percentiles, HeavyTailStragglersReportedExactly) {
  // A tight 20-29 ms body plus five multi-second stragglers (the shape
  // of the pull-retry tail the block tracer once saw). 2001 samples put
  // p99.9 at rank 1998 of the sorted set: the third-largest straggler.
  Percentiles p;
  for (int i = 0; i < 1996; ++i) p.add(20.0 + (i % 10));
  for (double s : {4364.5, 980.0, 3600.0, 1500.0, 2200.0}) p.add(s);
  ASSERT_EQ(p.count(), 2001u);
  EXPECT_EQ(p.percentile(100.0), 4364.5);  // max is the sample itself
  EXPECT_NEAR(p.percentile(99.9), 2200.0, 1e-6);
  EXPECT_GE(p.percentile(50.0), 20.0);
  EXPECT_LE(p.percentile(50.0), 29.0);
  EXPECT_LT(p.percentile(95.0), 100.0);
}

TEST(Percentiles, ExtremeValuesDoNotOverflow) {
  Percentiles p;
  p.add(5.0);
  p.add(1e15);  // ~31,700 years in milliseconds
  EXPECT_EQ(p.percentile(100.0), 1e15);
  EXPECT_EQ(p.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(50.0), (5.0 + 1e15) / 2.0);
  EXPECT_DOUBLE_EQ(p.mean(), (5.0 + 1e15) / 2.0);
}

TEST(Metrics, ThroughputCountsWindowOnly) {
  Metrics m;
  m.record_commit(seconds(1), 100);
  m.record_commit(seconds(5), 200);
  m.record_commit(seconds(9), 300);
  // Window [4s, 10s]: 500 txs over 6 seconds.
  EXPECT_NEAR(m.throughput_tps(seconds(4), seconds(10)), 500.0 / 6.0, 1e-9);
  EXPECT_EQ(m.committed_txs(), 600u);
  EXPECT_EQ(m.commit_events(), 3u);
}

TEST(Metrics, LatenciesInMilliseconds) {
  Metrics m;
  m.record_latencies({milliseconds(250)});
  EXPECT_DOUBLE_EQ(m.latencies().mean(), 250.0);
  m.record_latencies({milliseconds(50), milliseconds(150)});
  EXPECT_DOUBLE_EQ(m.latencies().mean(), 150.0);
}

TEST(Metrics, LatenciesReturnsAnIndependentSnapshot) {
  // Regression: latencies() used to hand out a reference to the
  // internal Percentiles — the lock was released at return, so callers
  // read the vector while recorder threads grew it. It now returns a
  // locked value copy that later records cannot mutate.
  Metrics m;
  m.record_latencies({milliseconds(100)});
  const Percentiles snap = m.latencies();
  m.record_latencies({milliseconds(900)});
  EXPECT_DOUBLE_EQ(snap.mean(), 100.0);
  EXPECT_DOUBLE_EQ(m.latencies().mean(), 500.0);
}

TEST(Metrics, EmptyWindowIsZero) {
  Metrics m;
  EXPECT_DOUBLE_EQ(m.throughput_tps(seconds(1), seconds(1)), 0.0);
}

TEST(Metrics, ByteCountersAccumulate) {
  Metrics m;
  EXPECT_EQ(m.bytes_sent(), 0u);
  EXPECT_EQ(m.bytes_received(), 0u);
  m.record_bytes_sent(1000);
  m.record_bytes_sent(24);
  m.record_bytes_received(512);
  EXPECT_EQ(m.bytes_sent(), 1024u);
  EXPECT_EQ(m.bytes_received(), 512u);
}

}  // namespace
}  // namespace predis
