#include "consensus/pbft/pbft_node.hpp"

#include <gtest/gtest.h>

#include "cluster.hpp"

namespace predis::consensus::pbft {
namespace {

using testing::TestCluster;

/// PBFT with 100-transaction batches.
core::ClusterConfig pbft_config(std::size_t n = 4, std::size_t f = 1) {
  auto cfg = testing::cluster_config(core::Protocol::kPbft, n, f);
  cfg.batch_size = 100;
  return cfg;
}

TEST(Pbft, CommitsClientTransactions) {
  TestCluster cluster(pbft_config());
  cluster.add_client(cluster.consensus_ids(), 500, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));

  EXPECT_GT(cluster.metrics.committed_txs(), 800u);
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_EQ(cluster.metrics.latencies().count(),
            cluster.metrics.committed_txs());
  // All replicas executed the same prefix.
  for (auto& node : cluster.nodes) {
    EXPECT_EQ(node.pbft->last_executed(),
              cluster.nodes[0].pbft->last_executed());
  }
}

TEST(Pbft, NoViewChangesWhenLeaderHealthy) {
  TestCluster cluster(pbft_config());
  cluster.add_client(cluster.consensus_ids(), 200, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  for (auto& node : cluster.nodes) {
    EXPECT_EQ(node.pbft->view(), 0u);
    EXPECT_EQ(node.pbft->view_changes(), 0u);
  }
}

TEST(Pbft, LeaderCrashTriggersViewChangeAndRecovers) {
  TestCluster cluster(pbft_config());
  cluster.add_client(cluster.consensus_ids(), 300, seconds(4));
  cluster.net().start();
  cluster.net().run_until(seconds(1));
  const auto committed_before = cluster.metrics.committed_txs();
  EXPECT_GT(committed_before, 0u);

  // Kill the view-0 leader (node 0).
  cluster.net().set_node_down(cluster.consensus_ids()[0], true);
  cluster.net().run_until(seconds(4));

  EXPECT_GT(cluster.metrics.committed_txs(), committed_before);
  EXPECT_TRUE(cluster.ledger.consistent());
  for (std::size_t i = 1; i < cluster.nodes.size(); ++i) {
    EXPECT_GE(cluster.nodes[i].pbft->view(), 1u);
  }
}

TEST(Pbft, ToleratesFSilentReplicas) {
  TestCluster cluster(pbft_config());
  // Pause the last replica (not the leader): quorum 3 of 4 remains.
  cluster.nodes[3].pbft->set_paused(true);
  cluster.add_client(cluster.consensus_ids(), 300, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 400u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

TEST(Pbft, StallsBeyondFFailuresUntilNodeReturns) {
  TestCluster cluster(pbft_config());
  cluster.nodes[2].pbft->set_paused(true);
  cluster.nodes[3].pbft->set_paused(true);  // 2 > f = 1
  cluster.add_client(cluster.consensus_ids(), 300, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(2));
  EXPECT_EQ(cluster.metrics.committed_txs(), 0u);

  // One paused node resumes; progress returns (possibly in a new view).
  cluster.nodes[2].pbft->set_paused(false);
  cluster.add_client(cluster.consensus_ids(), 300, seconds(4), 11);
  cluster.net().run_until(seconds(5));
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

// A catch-up retry that fires while the core is paused ends the
// episode, so lag evidence after the pause starts a new one.
TEST(Pbft, LaggingReplicaCatchesUpAfterAPausedRetry) {
  TestCluster cluster(pbft_config());
  const NodeId lagging_id = cluster.consensus_ids()[3];
  PbftCore& lagging = *cluster.nodes[3].pbft;
  bool isolated = true;       // every message to or from node 3 is lost
  bool replies_lost = false;  // every catch-up reply to node 3 is lost
  std::size_t requests = 0;   // catch-up requests node 3 sent
  cluster.net().set_drop_filter(
      [&](NodeId from, NodeId to, const runtime::Message& msg) {
        const std::string name = msg.name();
        if (from == lagging_id && name == "CatchUpRequest") ++requests;
        if (isolated) return from == lagging_id || to == lagging_id;
        return replies_lost && to == lagging_id &&
               (name == "CatchUpBatch" || name == "StateSnapshot");
      });
  cluster.add_client(cluster.consensus_ids(), 300, seconds(6));
  cluster.net().start();

  // Cut off, node 3 falls more than two checkpoint intervals behind.
  cluster.net().run_until(seconds(2));
  ASSERT_EQ(lagging.last_executed(), 0u);
  // The next certified checkpoint starts its catch-up; no reply gets
  // through, so the episode is still retrying when the core pauses and
  // its pending retry fires during the pause.
  isolated = false;
  replies_lost = true;
  cluster.net().run_until(seconds(3));
  ASSERT_GT(requests, 0u);
  lagging.set_paused(true);
  cluster.net().run_until(seconds(4));
  lagging.set_paused(false);
  replies_lost = false;

  // Later certified checkpoints are fresh lag evidence. Node 3 catches
  // up to its peers' certified state: no more than the two checkpoint
  // intervals (2 x 16 slots) that trigger a catch-up behind them.
  cluster.net().run_until(seconds(8));
  EXPECT_GT(lagging.last_executed(), 0u);
  EXPECT_LT(cluster.nodes[0].pbft->last_executed(),
            lagging.last_executed() + 32);
  EXPECT_TRUE(cluster.ledger.consistent());
}

class PbftSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbftSeeds, SafetyHoldsAcrossSeedsWithLeaderCrash) {
  TestCluster cluster(pbft_config(4, 1));
  cluster.add_client(cluster.consensus_ids(), 400, seconds(3), GetParam());
  cluster.net().start();
  const SimTime crash_at =
      milliseconds(200 + 150 * static_cast<SimTime>(GetParam() % 7));
  PREDIS_FIRE_AND_FORGET(cluster.net().schedule_after(crash_at, [&cluster] {
    cluster.net().set_node_down(cluster.consensus_ids()[0], true);
  }));
  cluster.net().run_until(seconds(4));
  EXPECT_TRUE(cluster.ledger.consistent());
  EXPECT_GT(cluster.metrics.committed_txs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbftSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Pbft, SevenNodeClusterCommits) {
  TestCluster cluster(pbft_config(7, 2));
  cluster.add_client(cluster.consensus_ids(), 500, seconds(2));
  cluster.net().start();
  cluster.net().run_until(seconds(3));
  EXPECT_GT(cluster.metrics.committed_txs(), 500u);
  EXPECT_TRUE(cluster.ledger.consistent());
}

}  // namespace
}  // namespace predis::consensus::pbft
