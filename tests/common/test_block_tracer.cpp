#include "common/block_tracer.hpp"

#include <gtest/gtest.h>


namespace predis {
namespace {

const Hash32 kKeyA = trace_key(1);
const Hash32 kKeyB = trace_key(2);

TEST(BlockTracer, KeepsEarliestObservationPerStage) {
  BlockTracer t;
  t.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(50));
  t.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(30));
  t.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(80));
  EXPECT_EQ(t.first(TraceStage::kBlockCommitted, kKeyA), milliseconds(30));
  EXPECT_FALSE(t.has(TraceStage::kCutProposed, kKeyA));
  EXPECT_EQ(t.first(TraceStage::kCutProposed, kKeyB), kSimTimeNever);
}

TEST(BlockTracer, StoreQuorumFlipsOnDistinctNodes) {
  BlockTracer t(/*store_quorum=*/3);
  t.record_store(kKeyA, milliseconds(10), 0);
  t.record_store(kKeyA, milliseconds(20), 1);
  t.record_store(kKeyA, milliseconds(25), 1);  // duplicate node: no-op
  EXPECT_FALSE(t.has(TraceStage::kBundleStoredQuorum, kKeyA));
  t.record_store(kKeyA, milliseconds(40), 2);
  EXPECT_EQ(t.first(TraceStage::kBundleStoredQuorum, kKeyA),
            milliseconds(40));
}

TEST(BlockTracer, CausalOrderingChecksObservedStagesOnly) {
  BlockTracer t;
  t.record(TraceStage::kCutProposed, kKeyA, milliseconds(10));
  t.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(60));
  EXPECT_TRUE(t.causally_ordered(kKeyA));
  // Unobserved key: vacuously ordered.
  EXPECT_TRUE(t.causally_ordered(kKeyB));

  BlockTracer bad;
  bad.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(10));
  bad.record(TraceStage::kCutProposed, kKeyA, milliseconds(60));
  EXPECT_FALSE(bad.causally_ordered(kKeyA));
}

TEST(BlockTracer, StageSamplesDeriveNamedIntervals) {
  BlockTracer t;
  t.record(TraceStage::kTxEnqueued, kKeyA, milliseconds(0));
  t.record(TraceStage::kBundleProduced, kKeyA, milliseconds(5));
  t.record(TraceStage::kCutProposed, kKeyA, milliseconds(20));
  t.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(95));
  // Two full nodes reconstruct: distribution is a per-node distribution.
  t.record(TraceStage::kBlockReconstructed, kKeyA, milliseconds(120), 7);
  t.record(TraceStage::kBlockReconstructed, kKeyA, milliseconds(150), 8);

  const auto samples = t.stage_samples();
  ASSERT_EQ(samples.count("tx_wait"), 1u);
  EXPECT_DOUBLE_EQ(samples.at("tx_wait").percentile(50), 5.0);
  ASSERT_EQ(samples.count("production"), 1u);
  EXPECT_DOUBLE_EQ(samples.at("production").percentile(50), 75.0);
  ASSERT_EQ(samples.count("distribution"), 1u);
  EXPECT_EQ(samples.at("distribution").count(), 2u);
  EXPECT_DOUBLE_EQ(samples.at("distribution").percentile(100), 55.0);
  ASSERT_EQ(samples.count("end_to_end"), 1u);
  EXPECT_DOUBLE_EQ(samples.at("end_to_end").percentile(100), 130.0);

  bool saw_production = false;
  for (const TraceStageStats& row : t.stage_breakdown()) {
    if (row.name != "production") continue;
    saw_production = true;
    EXPECT_EQ(row.count, 1u);
    EXPECT_DOUBLE_EQ(row.p50_ms, 75.0);
  }
  EXPECT_TRUE(saw_production);
}

TEST(BlockTracer, TotalsCountEntriesBansAndPulls) {
  BlockTracer t;
  t.record(TraceStage::kCutProposed, kKeyA, milliseconds(10));
  t.record(TraceStage::kBlockCommitted, kKeyA, milliseconds(60));
  t.record_ban(0, 3, milliseconds(5));
  t.record_ban(0, 3, milliseconds(6));
  t.record_ban(1, 3, milliseconds(7));
  t.record_pull(kKeyB, 2, milliseconds(7));
  t.record_pull(kKeyB, 2, milliseconds(8));
  t.record_pull(kKeyA, 1, milliseconds(9));
  // Pulls are tracked per (block, node), not as trace entries: only
  // kKeyA's stage records created an entry.
  EXPECT_EQ(t.entry_count(), 1u);
  // Totals sum over every (observer, producer) and (block, node) pair.
  EXPECT_EQ(t.total_bans(), 3u);
  EXPECT_EQ(t.total_pulls(), 3u);
}

// --- Anomaly detectors --------------------------------------------------

TEST(BlockTracerAnomalies, RebanStormFiresAtThreshold) {
  BlockTracer t;
  t.record_ban(1, 3, seconds(1));
  t.record_ban(1, 3, seconds(2));
  EXPECT_TRUE(t.anomalies(seconds(10)).empty());
  t.record_ban(1, 3, seconds(3));
  const auto as = t.anomalies(seconds(10));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kRebanStorm);
  EXPECT_EQ(as[0].node, 1u);
  EXPECT_EQ(as[0].producer, 3u);
  EXPECT_EQ(as[0].count, 3u);
  EXPECT_NE(as[0].describe().find("re-ban storm"), std::string::npos);
}

TEST(BlockTracerAnomalies, DistinctObserversAreNotAStorm) {
  BlockTracer t;
  // Every honest node banning the producer once is the CORRECT
  // response to one equivocation, not a storm.
  for (NodeId observer = 0; observer < 4; ++observer) {
    t.record_ban(observer, 3, seconds(1));
  }
  EXPECT_TRUE(t.anomalies(seconds(10)).empty());
}

TEST(BlockTracerAnomalies, PullSpiralFiresAtThreshold) {
  BlockTracer t;
  for (int i = 0; i < 11; ++i) t.record_pull(kKeyA, 5, seconds(i));
  EXPECT_TRUE(t.anomalies(seconds(20)).empty());
  t.record_pull(kKeyA, 5, seconds(12));
  const auto as = t.anomalies(seconds(20));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kPullSpiral);
  EXPECT_EQ(as[0].node, 5u);
  EXPECT_EQ(as[0].count, 12u);
}

TEST(BlockTracerAnomalies, StalledBlockNeedsAgeAndDistributionLayer) {
  BlockTracer t;
  t.record(TraceStage::kBlockCommitted, kKeyA, seconds(1));
  // No reconstruction anywhere in the trace: consensus-only run, the
  // stall detector stays quiet.
  EXPECT_TRUE(t.anomalies(seconds(30)).empty());

  // Another block reconstructing proves a distribution layer exists.
  t.record(TraceStage::kBlockCommitted, kKeyB, seconds(1));
  t.record(TraceStage::kBlockReconstructed, kKeyB, seconds(2), 9);
  const auto as = t.anomalies(seconds(30));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kStalledBlock);
  EXPECT_EQ(as[0].key, kKeyA);

  // A recent commit is not stalled yet.
  EXPECT_TRUE(t.anomalies(seconds(3)).empty());
}

TEST(BlockTracerAnomalies, ExpectReconstructionForcesStallDetection) {
  BlockTracer t;
  t.record(TraceStage::kBlockCommitted, kKeyA, seconds(1));
  t.expect_reconstruction(true);
  const auto as = t.anomalies(seconds(30));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kStalledBlock);
}

// --- Attack-shaped traces (adversary campaign) --------------------------
//
// Each case replays the observable signature one attacker archetype
// leaves in a trace and asserts the matching detector fires: the
// anomaly scan is the degradation campaign's tripwire.

TEST(BlockTracerAnomalies, StripeWithholdingShapeTripsPullSpiral) {
  // A relayer that accepts stripes but never re-shares starves its
  // subtree: the downstream node keeps re-pulling the same block from
  // the only peer it knows, exactly the pull-spiral signature.
  BlockTracer t;
  t.record(TraceStage::kBlockCommitted, kKeyA, seconds(1));
  for (int i = 0; i < 13; ++i) {
    t.record_pull(kKeyA, 4, seconds(1) + milliseconds(300 * i));
  }
  const auto as = t.anomalies(seconds(8));
  bool spiral = false;
  for (const TraceAnomaly& a : as) {
    spiral = spiral || (a.kind == TraceAnomaly::Kind::kPullSpiral &&
                        a.node == 4u);
  }
  EXPECT_TRUE(spiral);
}

TEST(BlockTracerAnomalies, ThrottledLeaderShapeTripsStalledBlock) {
  // A throttled stripe source delays distribution past the stall
  // horizon: the block commits but no full node ever reconstructs it
  // within stall_after.
  BlockTracer t;
  t.expect_reconstruction(true);
  t.record(TraceStage::kCutProposed, kKeyA, seconds(1));
  t.record(TraceStage::kBlockCommitted, kKeyA, seconds(1) +
           milliseconds(200));
  const auto as = t.anomalies(seconds(10));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kStalledBlock);
  EXPECT_EQ(as[0].key, kKeyA);
}

TEST(BlockTracerAnomalies, ChurnRejoinShapeTripsRebanStorm) {
  // An equivocator riding the churn storm: every rejoin is followed by
  // a fresh conflict and a fresh ban at the same observer. Distinct
  // from the legitimate one-ban-per-observer response.
  BlockTracer t;
  for (int cycle = 0; cycle < 3; ++cycle) {
    t.record_ban(2, 0, seconds(1 + 2 * cycle));
    t.record_unban(2, 0, seconds(2 + 2 * cycle));
  }
  const auto as = t.anomalies(seconds(12));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kRebanStorm);
  EXPECT_EQ(as[0].node, 2u);
  EXPECT_EQ(as[0].producer, 0u);
}

TEST(BlockTracer, DigestIsContentSensitive) {
  const auto fill = [](BlockTracer& t) {
    t.record(TraceStage::kBundleProduced, kKeyA, milliseconds(3));
    t.record(TraceStage::kBlockReconstructed, kKeyA, milliseconds(9), 4);
    t.record_ban(0, 2, milliseconds(5));
    t.record_pull(kKeyB, 1, milliseconds(6));
  };
  BlockTracer a, b;
  fill(a);
  fill(b);
  EXPECT_EQ(a.digest(), b.digest());
  b.record_pull(kKeyB, 1, milliseconds(7));
  EXPECT_NE(a.digest(), b.digest());
  BlockTracer c;
  fill(c);
  c.record(TraceStage::kBlockReconstructed, kKeyA, milliseconds(11), 5);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(BlockTracer, TraceKeyIsInjectiveOnSmallIds) {
  EXPECT_NE(trace_key(1), trace_key(2));
  EXPECT_EQ(trace_key(7), trace_key(7));
}

TEST(BlockTracerAnomalies, UnclosedProposalFiresForProposedNeverCommitted) {
  // Regression for the baseline entries/production mismatch: a load
  // window ending mid-round left the final cut proposed but never
  // committed, so the trace held one more entry than production rows
  // and nothing flagged the dangling proposal. Closed rounds stay
  // silent; the one unclosed proposal must be flagged once it ages
  // past stall_after, and keys_missing must attribute it.
  BlockTracer t;
  for (std::uint64_t i = 0; i < 65; ++i) {
    t.record(TraceStage::kCutProposed, trace_key(i),
             milliseconds(100 * i));
    t.record(TraceStage::kBlockCommitted, trace_key(i),
             milliseconds(100 * i + 30));
  }
  EXPECT_TRUE(t.anomalies(seconds(60)).empty());

  t.record(TraceStage::kCutProposed, trace_key(65), milliseconds(6500));
  // Too fresh to flag: consensus may still be deciding it.
  EXPECT_TRUE(t.anomalies(milliseconds(6500) + seconds(1)).empty());

  const auto as = t.anomalies(milliseconds(6500) + seconds(10));
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].kind, TraceAnomaly::Kind::kUnclosedProposal);
  EXPECT_EQ(as[0].key, trace_key(65));

  const auto dangling = t.keys_missing(TraceStage::kCutProposed,
                                       TraceStage::kBlockCommitted);
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_EQ(dangling[0], trace_key(65));

  // Closing the proposal clears the anomaly.
  t.record(TraceStage::kBlockCommitted, trace_key(65), milliseconds(6600));
  EXPECT_TRUE(t.anomalies(milliseconds(6500) + seconds(10)).empty());
}

}  // namespace
}  // namespace predis
